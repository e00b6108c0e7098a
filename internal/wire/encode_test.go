package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"twinsearch/internal/series"
)

// The answer shape as internal/server declares it for encoding/json.
type (
	answerMatch struct {
		Start int      `json:"start"`
		Dist  *float64 `json:"dist,omitempty"`
	}
	answer struct {
		Count   int           `json:"count"`
		Matches []answerMatch `json:"matches"`
	}
)

func stdlibAnswer(ms []series.Match) answer {
	ref := answer{Count: len(ms), Matches: make([]answerMatch, len(ms))}
	for i, m := range ms {
		ref.Matches[i].Start = m.Start
		if m.Dist >= 0 {
			d := m.Dist
			ref.Matches[i].Dist = &d
		}
	}
	return ref
}

func encodeStdlib(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// edgeDists straddle every switch in encoding/json's float format: the
// omitted negative, zero, the smallest denormal, both sides of the
// 1e-6 and 1e21 exponent-form thresholds, and the largest float.
var edgeDists = []float64{-1, 0, 5e-324, 9.99e-7, 1e-6, 1e20, 1e21, math.MaxFloat64,
	math.Copysign(0, -1), -0.5, 1e-7, 1.5e-10, 1e-100, 123456789.125, 0.1 + 0.2, 1e22, 1.5e300}

func TestAppendMatchesMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{0, 1, len(edgeDists), 1600} {
		ms := make([]series.Match, n)
		for i := range ms {
			ms[i] = series.Match{Start: rng.Intn(1 << 30), Dist: edgeDists[i%len(edgeDists)]}
			if i >= len(edgeDists) {
				ms[i].Dist = math.Float64frombits(rng.Uint64() &^ (1 << 63)) // any non-negative bit pattern
				if math.IsNaN(ms[i].Dist) || math.IsInf(ms[i].Dist, 0) {
					ms[i].Dist = rng.Float64()
				}
			}
		}
		if n == 1 {
			ms[0].Start = -7 // never produced, still encodable
		}

		rec := httptest.NewRecorder()
		if !WriteAnswer(rec, ms) {
			t.Fatalf("n=%d: WriteAnswer declined a finite answer", n)
		}
		if want := encodeStdlib(t, stdlibAnswer(ms)); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("n=%d: WriteAnswer differs from encoding/json\n got %.300s\nwant %.300s", n, rec.Body.Bytes(), want)
		}
		checkHeaders(t, rec)
	}
	// A nil slice is an empty list on both layers (they build the list
	// with make), never null.
	rec := httptest.NewRecorder()
	WriteAnswer(rec, nil)
	if got := rec.Body.String(); got != "{\"count\":0,\"matches\":[]}\n" {
		t.Fatalf("nil matches: %q", got)
	}
}

func checkHeaders(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code != 200 || rec.Header().Get("Content-Type") != "application/json" ||
		rec.Header().Get("Content-Length") != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("status %d, headers %v, body %d bytes", rec.Code, rec.Header(), rec.Body.Len())
	}
}

// TestWriteAnswerDeclines: a distance encoding/json would refuse makes
// the fast writer report false with nothing written, so the caller's
// encoding/json path answers exactly as it used to.
func TestWriteAnswerDeclines(t *testing.T) {
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		ms := []series.Match{{Start: 1, Dist: 0.5}, {Start: 2, Dist: d}}
		rec := httptest.NewRecorder()
		// The serving tier omits dist unless Dist >= 0, so only +Inf
		// reaches its encoder.
		if got, want := WriteAnswer(rec, ms), !(d > 0); got != want {
			t.Fatalf("WriteAnswer(dist %v) = %v, want %v", d, got, want)
		} else if got {
			if want := encodeStdlib(t, stdlibAnswer(ms)); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("dist %v: got %s want %s", d, rec.Body.Bytes(), want)
			}
		} else if rec.Body.Len() != 0 || len(rec.Header()) != 0 {
			t.Fatalf("WriteAnswer(dist %v) declined after writing %q %v", d, rec.Body.Bytes(), rec.Header())
		}
	}
}

// FuzzAppendFloat holds appendFloat to encoding/json on every finite
// bit pattern.
func FuzzAppendFloat(f *testing.F) {
	for _, d := range edgeDists {
		f.Add(math.Float64bits(d))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("%v (%#x): appendFloat %s, encoding/json %s", v, bits, got, want)
		}
	})
}

// The two encoders over a wide answer (the wide-sharded workload's
// ~1.6 k matches) and a top-k answer.
func BenchmarkWriteAnswer(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, bc := range []struct {
		name string
		n    int
		dist func() float64
	}{
		{"search1600", 1600, func() float64 { return -1 }},
		{"topk10", 10, rng.Float64},
	} {
		ms := make([]series.Match, bc.n)
		for i := range ms {
			ms[i] = series.Match{Start: rng.Intn(200000), Dist: bc.dist()}
		}
		w := &discard{h: http.Header{}}
		b.Run(bc.name+"/wire", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				WriteAnswer(w, ms)
			}
		})
		b.Run(bc.name+"/stdlib", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				WriteJSON(w, http.StatusOK, stdlibAnswer(ms))
			}
		})
	}
}

// discard is a ResponseWriter that keeps nothing.
type discard struct{ h http.Header }

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) WriteHeader(int)             {}
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }

package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// The three request shapes of the serving tier, tagged as
// internal/server tags them.
type (
	searchBody struct {
		Query []float64 `json:"query"`
		Eps   float64   `json:"eps"`
	}
	topkBody struct {
		Query []float64 `json:"query"`
		K     int       `json:"k"`
	}
	appendBody struct {
		Values []float64 `json:"values"`
	}
)

// shapes builds, per request shape, a fresh zero struct and the Fields
// that point into it.
var shapes = []struct {
	name string
	new  func() (any, Fields)
}{
	{"search", func() (any, Fields) {
		v := new(searchBody)
		return v, Fields{Query: &v.Query, Eps: &v.Eps}
	}},
	{"topk", func() (any, Fields) {
		v := new(topkBody)
		return v, Fields{Query: &v.Query, K: &v.K}
	}},
	{"append", func() (any, Fields) {
		v := new(appendBody)
		return v, Fields{Values: &v.Values}
	}},
}

// sameFloats compares two slices bit for bit, nil-vs-empty included.
func sameFloats(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameBits compares what two Fields of one shape point at, floats by
// their bits (reflect.DeepEqual would call -0 and 0 equal).
func sameBits(a, b Fields) bool {
	ok := true
	if a.Query != nil {
		ok = ok && sameFloats(*a.Query, *b.Query)
	}
	if a.Values != nil {
		ok = ok && sameFloats(*a.Values, *b.Values)
	}
	if a.Eps != nil {
		ok = ok && math.Float64bits(*a.Eps) == math.Float64bits(*b.Eps)
	}
	return ok
}

// checkAgainstStdlib is the differential: on every shape, a body the
// canonical parser accepts is one encoding/json accepts with the same
// struct; a body it declines leaves the struct untouched; and
// decodeRequest as a whole is indistinguishable from encoding/json.
// It returns how many shapes took the fast path.
func checkAgainstStdlib(t *testing.T, body []byte, l int) (fast int) {
	t.Helper()
	for _, sh := range shapes {
		ref, refFields := sh.new()
		refErr := json.NewDecoder(bytes.NewReader(body)).Decode(ref)

		got, gotFields := sh.new()
		if decodeCanonical(body, gotFields, l) {
			fast++
			if refErr != nil {
				t.Fatalf("%s: fast path accepted %q, encoding/json refuses it: %v", sh.name, body, refErr)
			}
			if !reflect.DeepEqual(got, ref) || !sameBits(gotFields, refFields) {
				t.Fatalf("%s: %q\nfast path:     %+v\nencoding/json: %+v", sh.name, body, got, ref)
			}
		} else if zero, _ := sh.new(); !reflect.DeepEqual(got, zero) {
			t.Fatalf("%s: fast path declined %q but stored %+v", sh.name, body, got)
		}

		all, allFields := sh.new()
		err := decodeRequest(body, all, allFields, l)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("%s: %q: decodeRequest error %v, encoding/json %v", sh.name, body, err, refErr)
		}
		if !reflect.DeepEqual(all, ref) || !sameBits(allFields, refFields) {
			t.Fatalf("%s: %q\ndecodeRequest: %+v\nencoding/json: %+v", sh.name, body, all, ref)
		}
	}
	return fast
}

// decodeSeeds are the bodies the fuzzer starts from and the table test
// pins: fast says whether at least one shape must take the fast path
// (a parser that declined everything would pass the differential).
var decodeSeeds = []struct {
	body string
	fast bool
}{
	// Canonical, as clients write them.
	{`{"query":[1,2.5,-3e2],"eps":0.2}`, true},
	{`{"query":[1,2,3],"k":5}`, true},
	{`{"values":[0.1,0.2]}`, true},
	{`{"values":[1,-2.5e-3,0]}`, true},
	{`{"k":3,"query":[1]}`, true}, // reordered
	{`{"query":[0.5],"eps":1e-3}`, true},
	{`{"eps":0.2,"query":[1,2]}`, true}, // reordered
	{`{}`, true},
	{`{"query":[]}`, true}, // empty, not nil
	{`{"query":[],"eps":0}`, true},
	{" \t\r\n{ \"query\" : [ 1 , 2 ] , \"eps\" : 0.5 } \n", true},
	{"{\n  \"query\": [\n    1,\n    2\n  ],\n  \"k\": 2\n}\n", true},
	{`{"query":[-0,0,-0.0,1E+5,1e-5,1.5E-3],"eps":-0}`, true},
	{`{"query":[1234567890123456789012345678901234567890,0.1234567890123456789012345678901234567890],"eps":1}`, true},
	{`{"query":[5e-324,1.7976931348623157e308,2.2250738585072014e-308,1e-400],"eps":1}`, true},
	{`{"query":[1.00000000000000011102230246251565404236316680908203125,9007199254740993],"eps":1}`, true}, // long mantissas: strconv converts
	{`{"query":[4.9e-324,-2.2250738585072011e-308],"eps":1}`, true},                                        // subnormals: strconv converts
	{`{"query":[1],"k":-0}`, true},
	{`{"query":[1],"k":9223372036854775807}`, true},
	// Valid for encoding/json, not canonical: the fallback's.
	{`{"query":[1],"eps":0.2,"extra":{"a":[1,"x"]}}`, false}, // unknown key
	{`{"query":[1],"query":[2],"eps":1}`, false},             // duplicate
	{`{"query":[1],"query":null}`, false},                    // duplicate null keeps the first
	{`{"Query":[1],"EPS":2,"K":3,"Values":[4]}`, false},      // case-insensitive match
	{`{"qu\u0065ry":[1],"eps":1}`, false},                    // escaped key
	{`{"query":null,"eps":null,"k":null}`, false},
	{`{"values":null}`, false},
	{`{"query":[1],"eps":1} trailing`, false},
	{`{"query":[1],"eps":1}{"query":[2]}`, false},
	{`{"query":[1],"eps":1}]`, false},
	// Refused by encoding/json: the fallback words the error.
	{`{"query":[1e999],"eps":1}`, false},
	{`{"query":[1],"eps":-1e999}`, false},
	{`{"query":[1,1.7976931348623159e308],"eps":1}`, false}, // rounds past MaxFloat64
	{`{"query":[1],"k":1.0}`, false},
	{`{"query":[1],"k":1e2}`, false},
	{`{"query":[1],"k":9223372036854775808}`, false},
	{`{"query":[1],"k":"7"}`, false},
	{`{"query":["1"],"eps":1}`, false},
	{`{"query":[[1]],"eps":1}`, false},
	{`{"query":{"0":1},"eps":1}`, false},
	{`{"query":[1],"eps":true}`, false},
	{`{"query":[1],"eps":"0.5"}`, false},
	{`{"query":[01]}`, false},
	{`{"query":[+1]}`, false},
	{`{"query":[.5]}`, false},
	{`{"query":[1.]}`, false},
	{`{"query":[1e]}`, false},
	{`{"query":[1e+]}`, false},
	{`{"query":[-]}`, false},
	{`{"query":[0x10]}`, false},
	{`{"query":[1_000]}`, false},
	{`{"query":[NaN]}`, false},
	{`{"query":[Infinity]}`, false},
	{`{"query":[inf]}`, false},
	{`{"query":[1,]}`, false},
	{`{"query":[,1]}`, false},
	{`{"query":[1 2]}`, false},
	{`{"query":[1],}`, false},
	{`{,"query":[1]}`, false},
	{`{"query" [1]}`, false},
	{`{"query":[1]"eps":1}`, false},
	{`{query:[1]}`, false},
	{`{"query":[1],"eps":0.5x}`, false},
	{`{"query":[1],"eps":0.`, false},
	{`{"query":[1,2`, false},
	{`{"query":[1,2]`, false},
	{`{"query":[1.5`, false},
	{`{"que`, false},
	{`{`, false},
	{``, false},
	{`   `, false},
	{`null`, false},
	{`[1,2,3]`, false},
	{`"query"`, false},
	{`1`, false},
	{"{\"query\":[1],\"eps\":1}\x00", false},
	{"{\"query\x00\":[1]}", false},
	{"{\"query\":[1\x0b]}", false}, // vertical tab is not JSON whitespace
	{"\ufeff{\"query\":[1]}", false},
}

func TestDecodeRequestTable(t *testing.T) {
	for _, s := range decodeSeeds {
		fast := checkAgainstStdlib(t, []byte(s.body), 4)
		if (fast > 0) != s.fast {
			t.Errorf("%q: %d shapes took the fast path, want fast=%v", s.body, fast, s.fast)
		}
	}
}

// TestDecodeRequestBenchBody pins the body the benchmark's clients
// send — a json.Marshal of 100 floats and a threshold — to the fast
// path, pre-sized to exactly L.
func TestDecodeRequestBenchBody(t *testing.T) {
	q := make([]float64, 100)
	for i := range q {
		q[i] = math.Sin(float64(i)) * math.Pow(10, float64(i%40-20))
	}
	body, err := json.Marshal(searchBody{Query: q, Eps: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	var got searchBody
	if !decodeCanonical(body, Fields{Query: &got.Query, Eps: &got.Eps}, len(q)) {
		t.Fatalf("fast path declined %s", body)
	}
	if !sameFloats(got.Query, q) || got.Eps != 0.2 || cap(got.Query) != len(q) {
		t.Fatalf("got %d values (cap %d), eps %v", len(got.Query), cap(got.Query), got.Eps)
	}
	checkAgainstStdlib(t, body, len(q))
}

func FuzzDecodeRequest(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstStdlib(t, body, 4)
	})
}

var sinkSearch searchBody

// The two decoders over the benchmark's own request shape.
func BenchmarkDecodeRequest(b *testing.B) {
	q := make([]float64, 100)
	for i := range q {
		q[i] = math.Sin(float64(i)) * 3
	}
	body, _ := json.Marshal(searchBody{Query: q, Eps: 0.2})
	b.Run("wire", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req searchBody
			if err := decodeRequest(body, &req, Fields{Query: &req.Query, Eps: &req.Eps}, 100); err != nil {
				b.Fatal(err)
			}
			sinkSearch = req
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req searchBody
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
			sinkSearch = req
		}
	})
}

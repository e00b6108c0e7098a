package twinsearch

// Integration and property tests: the engine, single or partitioned,
// must return exactly the brute-force definition's result set on
// randomized inputs, parameters and normalization modes — the strongest
// correctness statement the filter-verification framework admits.

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"twinsearch/internal/datasets"
)

// TestPropertyEngineMatchesOracle drives randomized (series, query,
// eps, mode, L) instances through the engine on both index shapes and
// requires the brute-force definition's result set from each.
func TestPropertyEngineMatchesOracle(t *testing.T) {
	type instance struct {
		Seed    int64
		Kind    uint8
		ModeSel uint8
		LSel    uint8
		EpsSel  uint8
		QPos    uint16
	}
	f := func(in instance) bool {
		n := 1500
		var ts []float64
		switch in.Kind % 4 {
		case 0:
			ts = datasets.RandomWalk(in.Seed, n)
		case 1:
			// Seed%97 is negative for negative seeds; keep the period
			// strictly positive or the generator emits NaNs (sin of
			// ±Inf) that Open rightly rejects.
			ts = datasets.Sine(in.Seed, n, 80+float64(abs64(in.Seed)%97), 2, 0.2)
		case 2:
			ts = datasets.InsectN(in.Seed, n)
		default:
			ts = datasets.EEGN(in.Seed, n)
		}
		mode := []NormMode{NormNone, NormGlobal, NormPerSubsequence}[in.ModeSel%3]
		l := []int{20, 50, 100}[in.LSel%3]
		eps := []float64{0.05, 0.2, 0.5, 1.0}[in.EpsSel%4]
		if mode == NormNone {
			eps *= 5 // raw scales are wider
		}
		qp := int(in.QPos) % (n - l)
		q := append([]float64(nil), ts[qp:qp+l]...)

		for _, shards := range bothShapes {
			eng, err := Open(ts, Options{L: l, Shards: shards, Norm: mode, NormSet: true})
			if err != nil {
				t.Logf("open %d shards/%v: %v", shards, mode, err)
				return false
			}
			ms, err := eng.Search(q, eps)
			if want := oracleRange(eng, q, eps); err != nil || !slices.Equal(ms, want) {
				t.Logf("%d shards/%v l=%d eps=%v: %d results (%v), oracle %d", shards, mode, l, eps, len(ms), err, len(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyEpsilonMonotonicity: growing ε can only grow the result
// set, and every smaller-ε match survives.
func TestPropertyEpsilonMonotonicity(t *testing.T) {
	ts := datasets.EEGN(11, 5000)
	eng, err := Open(ts, Options{L: 100})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 20; iter++ {
		qp := rng.Intn(len(ts) - 100)
		q := append([]float64(nil), ts[qp:qp+100]...)
		prev := map[int]bool{}
		prevLen := 0
		for _, eps := range []float64{0.05, 0.1, 0.2, 0.4, 0.8} {
			ms, err := eng.Search(q, eps)
			if err != nil {
				t.Fatal(err)
			}
			if len(ms) < prevLen {
				t.Fatalf("result set shrank when eps grew")
			}
			now := map[int]bool{}
			for _, m := range ms {
				now[m.Start] = true
			}
			for p := range prev {
				if !now[p] {
					t.Fatalf("match at %d lost when eps grew", p)
				}
			}
			prev, prevLen = now, len(ms)
		}
	}
}

// TestConcurrentSearches: one engine, many goroutines — searches are
// read-only and must race-cleanly return identical answers (run under
// -race in CI).
func TestConcurrentSearches(t *testing.T) {
	ts := datasets.InsectN(3, 20000)
	for _, shards := range bothShapes {
		for _, norm := range []NormMode{NormGlobal, NormPerSubsequence} {
			eng, err := Open(ts, Options{L: 100, Shards: shards, Norm: norm, NormSet: true})
			if err != nil {
				t.Fatal(err)
			}
			queries := datasets.Queries(ts, 17, 8, 100)
			want := make([][]Match, len(queries))
			for i, q := range queries {
				if want[i], err = eng.Search(q, 0.4); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			errs := make(chan error, 32)
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i, q := range queries {
						ms, err := eng.Search(q, 0.4)
						if err != nil {
							errs <- err
							return
						}
						if len(ms) != len(want[i]) {
							errs <- errMismatch
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatalf("%d shards/%v: %v", shards, norm, err)
			}
		}
	}
}

var errMismatch = errorString("concurrent search result mismatch")

// abs64 is |v| with the int64 minimum clamped to a positive value.
func abs64(v int64) int64 {
	if v == math.MinInt64 {
		return math.MaxInt64
	}
	if v < 0 {
		return -v
	}
	return v
}

type errorString string

func (e errorString) Error() string { return string(e) }

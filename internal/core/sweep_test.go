package core

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"twinsearch/internal/datasets"
	"twinsearch/internal/oracle"
	"twinsearch/internal/series"
)

// TestSweepTraversalShapes runs the four frozen traversals off the
// shapes every other answer test uses: L = 101 leaves one tail lane
// after the kernel's 4-lane steps, and MaxCap = 80 makes nodes wider
// than sweepScratchCap, so the child-distance scratch spills. Every
// path must give the oracle's answer (TestTraversalGoldenStats pins the
// counters on the same two shapes).
func TestSweepTraversalShapes(t *testing.T) {
	data := datasets.EEGN(5, 12000)
	for _, cfg := range []Config{
		{L: 101},
		{L: 100, MaxCap: 80, MinCap: 30},
	} {
		for _, mode := range []series.NormMode{series.NormNone, series.NormGlobal} {
			t.Run(fmt.Sprintf("L=%d/MaxCap=%d/mode=%d", cfg.L, cfg.MaxCap, mode), func(t *testing.T) {
				f, ext := frozenOver(t, data, mode, cfg)
				if widest := int(slices.Max(f.count[:f.leafStart])); cfg.MaxCap > sweepScratchCap && widest <= sweepScratchCap {
					t.Fatalf("widest internal node has %d children; the scratch spill (> %d) never runs", widest, sweepScratchCap)
				}
				l := cfg.L
				for _, start := range []int{17, 4000, f.Len() - 1} {
					q := ext.ExtractCopy(start, l)
					for _, eps := range []float64{0, 0.2, 1.0} {
						gotM := f.Search(q, eps)
						if want := oracle.Range(ext, q, eps); !slices.Equal(gotM, want) {
							t.Fatalf("q@%d eps=%g: %d matches, oracle %d", start, eps, len(gotM), len(want))
						}

						short := q[:l-37]
						gotP, err := f.SearchPrefix(short, eps)
						if err != nil {
							t.Fatal(err)
						}
						if want := oracle.Range(ext, short, eps); !slices.Equal(gotP, want) {
							t.Fatalf("q@%d eps=%g: prefix %d matches, oracle %d", start, eps, len(gotP), len(want))
						}
					}
					for _, k := range []int{1, 10, 90} {
						gotM, _ := f.SearchTopKShared(q, k, nil)
						if want := oracle.TopK(ext, q, k); !slices.Equal(gotM, want) {
							t.Fatalf("q@%d k=%d: top-k %v, oracle %v", start, k, gotM, want)
						}
					}
				}
			})
		}
	}
}

// TestFrozenUnitQueryLength: the counting entry points reject a
// wrong-length query themselves — with children scored as rows, a
// short query would otherwise match on a prefix of every row.
func TestFrozenUnitQueryLength(t *testing.T) {
	f, _ := frozenOver(t, datasets.RandomWalk(1, 500), series.NormGlobal, Config{L: 50})
	for _, n := range []int{49, 51} {
		q := make([]float64, n)
		for name, search := range map[string]func(){
			"SearchStats":      func() { f.SearchStats(q, 1) },
			"SearchTopKShared": func() { f.SearchTopKShared(q, 3, nil) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s accepted a %d-lane query on an L=50 index", name, n)
					}
				}()
				search()
			}()
		}
	}
}

// TestFrozenSearchAllocs pins the allocation budget of every range
// path that verifies in memory, on a bench-shaped index (EEG, L = 100,
// global normalisation): the range and prefix traversals and the tail
// scan. A traversal that reaches no leaf allocates nothing, and one
// that does allocates its answer — the doublings of the match slice —
// and nothing else: the stack, both sweep scratches and the candidates
// helper stay on the goroutine stack, and no verifier (whose magnitude
// order was an allocation and a sort per traversal) is built. 1 allocation for the typical single-twin
// query, which is what BenchmarkFrozenSearch reports at 200 000 points.
func TestFrozenSearchAllocs(t *testing.T) {
	data := datasets.EEGN(1, 50000)
	f, ext := frozenOver(t, data, series.NormGlobal, Config{L: 100})
	qs := datasets.Queries(data, 7, 8, 100)
	units := map[string]func(q []float64) []series.Match{
		"SearchStats": func(q []float64) []series.Match {
			ms, _ := f.SearchStats(q, 0.2)
			return ms
		},
		"SearchPrefixTree": func(q []float64) []series.Match {
			ms, _ := f.SearchPrefixTree(q[:60], 0.2)
			return ms
		},
		"ScanTail": func(q []float64) []series.Match {
			return ScanTail(ext, q, 0.2, 0, f.Len(), nil, nil)
		},
	}

	far := ext.TransformQuery(qs[0])
	for i := range far {
		far[i] += 100
	}
	if _, st := f.SearchStats(far, 0.2); st.LeavesReached != 0 {
		t.Fatalf("the far query reached %d leaves", st.LeavesReached)
	}
	for name, unit := range units {
		if avg := testing.AllocsPerRun(10, func() { unit(far) }); avg != 0 {
			t.Fatalf("%s finding nothing: %.0f allocs, want 0", name, avg)
		}
		for _, raw := range qs {
			q := ext.TransformQuery(raw)
			n := len(unit(q))
			if n == 0 {
				t.Fatalf("%s: a query cut from the series did not find itself", name)
			}
			budget := 1 + bits.Len(uint(n-1)) // append growth 1, 2, 4, ... to hold n
			if avg := testing.AllocsPerRun(10, func() { unit(q) }); int(avg) > budget {
				t.Fatalf("%s(eps=0.2), %d matches: %.0f allocs/query, budget %d", name, n, avg, budget)
			}
		}
	}
}

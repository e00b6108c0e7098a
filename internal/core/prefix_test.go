package core

import (
	"slices"
	"testing"

	"twinsearch/internal/datasets"
	"twinsearch/internal/oracle"
	"twinsearch/internal/series"
)

// searchShorter answers a query of length 1…L on f whole: the range
// traversal over the indexed starts, then ScanTail over the starts that
// exist only at the query's length.
func searchShorter(f *Frozen, q []float64, eps float64) []series.Match {
	ms, _ := f.SearchStats(q, eps)
	return ScanTail(f.ext, q, eps, f.Len(), series.NumSubsequences(f.ext.Len(), len(q)), ms, nil)
}

func TestSearchPrefixMatchesOracle(t *testing.T) {
	for _, mode := range []series.NormMode{series.NormNone, series.NormGlobal} {
		ts := datasets.InsectN(41, 6000)
		f, ext := frozenOver(t, ts, mode, Config{L: 120})
		for _, l := range []int{20, 60, 119, 120} {
			q := ext.ExtractCopy(2000, l)
			for _, eps := range []float64{0.2, 0.8, 2.5} {
				got := searchShorter(f, q, eps)
				indexed, tail := oracle.Prefix(ext, 120, q, eps)
				if want := slices.Concat(indexed, tail); !slices.Equal(got, want) {
					t.Fatalf("mode=%v l=%d eps=%v: %d vs %d results", mode, l, eps, len(got), len(want))
				}
				if tree, _ := f.SearchStats(q, eps); !slices.Equal(tree, indexed) {
					t.Fatalf("mode=%v l=%d eps=%v: tree half %d results, oracle %d", mode, l, eps, len(tree), len(indexed))
				}
			}
		}
	}
}

func TestSearchPrefixTailCoverage(t *testing.T) {
	// A query matching only in the final L−l tail positions, which the
	// index does not cover.
	ts := datasets.Sine(1, 1000, 97, 1.5, 0.05)
	f, ext := frozenOver(t, ts, series.NormGlobal, Config{L: 100})
	// Query = the very last l-window of the series; at eps=0 only the
	// tail scan can find its exact position.
	l := 40
	q := ext.ExtractCopy(len(ts)-l, l)
	got := searchShorter(f, q, 1e-12)
	found := false
	for _, m := range got {
		if m.Start == len(ts)-l {
			found = true
		}
	}
	if !found {
		t.Fatal("tail-only match missed")
	}
}

// TestSearchPrefixErrors: a range query's length must be 1…L — the
// callers validate (and refuse a shorter query under per-subsequence
// normalization), so the traversal panics on anything else.
func TestSearchPrefixErrors(t *testing.T) {
	ts := datasets.RandomWalk(2, 2000)
	f, _ := frozenOver(t, ts, series.NormGlobal, Config{L: 100})
	for _, q := range [][]float64{make([]float64, 101), nil} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("a %d-value query must panic", len(q))
				}
			}()
			f.SearchStats(q, 1)
		}()
	}
}

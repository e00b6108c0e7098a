package core

import (
	"slices"
	"testing"

	"twinsearch/internal/datasets"
	"twinsearch/internal/oracle"
	"twinsearch/internal/series"
)

func TestSearchPrefixMatchesOracle(t *testing.T) {
	for _, mode := range []series.NormMode{series.NormNone, series.NormGlobal} {
		ts := datasets.InsectN(41, 6000)
		f, ext := frozenOver(t, ts, mode, Config{L: 120})
		for _, l := range []int{20, 60, 119, 120} {
			q := ext.ExtractCopy(2000, l)
			for _, eps := range []float64{0.2, 0.8, 2.5} {
				got, err := f.SearchPrefix(q, eps)
				if err != nil {
					t.Fatalf("mode=%v l=%d: %v", mode, l, err)
				}
				indexed, tail := oracle.Prefix(ext, 120, q, eps)
				if want := slices.Concat(indexed, tail); !slices.Equal(got, want) {
					t.Fatalf("mode=%v l=%d eps=%v: %d vs %d results", mode, l, eps, len(got), len(want))
				}
				tree, err := f.SearchPrefixTree(q, eps)
				if err != nil || !slices.Equal(tree, indexed) {
					t.Fatalf("mode=%v l=%d eps=%v: tree half %d results (%v), oracle %d", mode, l, eps, len(tree), err, len(indexed))
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
	got, err := f.SearchPrefix(q, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
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

func TestSearchPrefixErrors(t *testing.T) {
	ts := datasets.RandomWalk(2, 2000)
	f, _ := frozenOver(t, ts, series.NormGlobal, Config{L: 100})
	if _, err := f.SearchPrefix(make([]float64, 101), 1); err == nil {
		t.Fatal("over-length query must fail")
	}
	if _, err := f.SearchPrefix(nil, 1); err == nil {
		t.Fatal("empty query must fail")
	}
	per, _ := frozenOver(t, ts, series.NormPerSubsequence, Config{L: 100})
	if _, err := per.SearchPrefix(make([]float64, 50), 1); err == nil {
		t.Fatal("per-subsequence mode must be rejected")
	}
}

func TestSearchApproxSubsetAndRecall(t *testing.T) {
	for _, mode := range []series.NormMode{series.NormNone, series.NormGlobal, series.NormPerSubsequence} {
		ts := datasets.EEGN(17, 8000)
		f, ext := frozenOver(t, ts, mode, Config{L: 100})
		const budget = 4
		selfHits, queries := 0, 0
		for p := 50; p < 7800; p += 250 {
			queries++
			q := ext.ExtractCopy(p, 100)
			approx, st := f.SearchApprox(q, 0.4, budget)
			exact := oracle.Range(ext, q, 0.4)
			exactSet := map[int]bool{}
			for _, m := range exact {
				exactSet[m.Start] = true
			}
			for _, m := range approx {
				if !exactSet[m.Start] {
					t.Fatalf("mode=%v: approximate result %d not in exact set", mode, m.Start)
				}
			}
			for _, m := range approx {
				if m.Start == p {
					selfHits++
					break
				}
			}
			if st.Candidates > budget*DefaultMaxCap {
				t.Fatalf("approximate search examined %d candidates (> budget×MaxCap)", st.Candidates)
			}
			if st.LeavesReached > budget {
				t.Fatalf("approximate search visited %d leaves (budget %d)", st.LeavesReached, budget)
			}
		}
		// No per-query guarantee — the nearest-leaf ordering just makes
		// misses rare at small budgets.
		if selfHits*10 < queries*8 {
			t.Fatalf("mode=%v: self-match recall %d/%d below 80%%", mode, selfHits, queries)
		}
	}
}

func TestSearchApproxEmptyIndex(t *testing.T) {
	ext := series.NewExtractor(datasets.RandomWalk(1, 100), series.NormGlobal)
	ix, _ := NewEmpty(ext, Config{L: 20})
	ms, st := ix.Freeze().SearchApprox(make([]float64, 20), 1, 3)
	if ms != nil || st.Candidates != 0 {
		t.Fatal("empty index should return nothing")
	}
}

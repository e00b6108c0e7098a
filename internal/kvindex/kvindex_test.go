package kvindex

import (
	"testing"

	"twinsearch/internal/datasets"
	"twinsearch/internal/oracle"
	"twinsearch/internal/series"
)

func buildOver(t *testing.T, ts []float64, mode series.NormMode, l int) (*Index, *series.Extractor) {
	t.Helper()
	ext := series.NewExtractor(ts, mode)
	ix, err := Build(ext, Config{L: l})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return ix, ext
}

func TestRejectsPerSubsequenceNorm(t *testing.T) {
	ext := series.NewExtractor(datasets.RandomWalk(1, 500), series.NormPerSubsequence)
	if _, err := Build(ext, Config{L: 50}); err != ErrPerSubsequenceNorm {
		t.Fatalf("err = %v, want ErrPerSubsequenceNorm", err)
	}
}

func TestRejectsBadConfig(t *testing.T) {
	ext := series.NewExtractor(datasets.RandomWalk(1, 100), series.NormNone)
	if _, err := Build(ext, Config{L: 0}); err == nil {
		t.Fatal("L=0 must fail")
	}
	if _, err := Build(ext, Config{L: 101}); err == nil {
		t.Fatal("L > n must fail")
	}
}

// TestMatchesSweepline holds the index to the definition of twin search
// (internal/oracle: every window, plain series.Chebyshev) — not to the
// sweepline, which verifies through the same series.Verifier as this
// index. The name is the brute-force scan the oracle spells out.
func TestMatchesSweepline(t *testing.T) {
	for _, tc := range []struct {
		name string
		ts   []float64
		mode series.NormMode
		eps  []float64
	}{
		{"walk-raw", datasets.RandomWalk(2, 4000), series.NormNone, []float64{0.5, 2, 5}},
		{"walk-global", datasets.RandomWalk(2, 4000), series.NormGlobal, []float64{0.1, 0.3, 0.6}},
		{"sine-global", datasets.Sine(4, 4000, 150, 2, 0.1), series.NormGlobal, []float64{0.1, 0.3}},
		{"insect-raw", datasets.InsectN(5, 5000), series.NormNone, []float64{1, 3}},
	} {
		ix, ext := buildOver(t, tc.ts, tc.mode, 80)
		q := ext.ExtractCopy(1000, 80)
		for _, eps := range tc.eps {
			got := ix.Search(q, eps)
			want := oracle.Range(ext, q, eps)
			if len(got) != len(want) {
				t.Fatalf("%s eps=%v: %d matches, want %d", tc.name, eps, len(got), len(want))
			}
			for i := range want {
				if got[i].Start != want[i].Start {
					t.Fatalf("%s eps=%v: position mismatch at %d", tc.name, eps, i)
				}
			}
		}
	}
}

func TestCandidateSupersetOfResults(t *testing.T) {
	ts := datasets.InsectN(9, 10000)
	ix, ext := buildOver(t, ts, series.NormGlobal, 100)
	q := ext.ExtractCopy(2500, 100)
	ms, st := ix.SearchStats(q, 0.5)
	if st.Results != len(ms) {
		t.Fatal("Results counter mismatch")
	}
	if st.Candidates < st.Results {
		t.Fatalf("funnel violated: %d candidates, %d results", st.Candidates, st.Results)
	}
	if st.Buckets == 0 {
		t.Fatal("no buckets touched yet query matched itself")
	}
}

func TestResultsSorted(t *testing.T) {
	ts := datasets.Sine(11, 8000, 100, 1, 0.05)
	ix, ext := buildOver(t, ts, series.NormGlobal, 100)
	q := ext.ExtractCopy(300, 100)
	ms := ix.Search(q, 0.4)
	for i := 1; i < len(ms); i++ {
		if ms[i].Start <= ms[i-1].Start {
			t.Fatal("results must be sorted and unique")
		}
	}
	if len(ms) < 2 {
		t.Fatalf("periodic series should yield many twins, got %d", len(ms))
	}
}

func TestConstantSeries(t *testing.T) {
	ts := make([]float64, 500)
	for i := range ts {
		ts[i] = 7
	}
	ix, ext := buildOver(t, ts, series.NormNone, 50)
	q := ext.ExtractCopy(0, 50)
	ms := ix.Search(q, 0.1)
	if len(ms) != series.NumSubsequences(500, 50) {
		t.Fatalf("constant series: every window is a twin, got %d", len(ms))
	}
}

func TestQueryLengthPanic(t *testing.T) {
	ix, _ := buildOver(t, datasets.RandomWalk(1, 500), series.NormNone, 50)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on wrong query length")
		}
	}()
	ix.Search(make([]float64, 49), 1)
}

func TestAccessors(t *testing.T) {
	ts := datasets.RandomWalk(3, 1000)
	ix, _ := buildOver(t, ts, series.NormNone, 100)
	if ix.Len() != series.NumSubsequences(1000, 100) {
		t.Fatalf("Len = %d", ix.Len())
	}
	if ix.L() != 100 {
		t.Fatalf("L = %d", ix.L())
	}
	if ix.MemoryBytes() <= 0 {
		t.Fatal("MemoryBytes must be positive")
	}
	if ix.IntervalCount() <= 0 {
		t.Fatal("IntervalCount must be positive")
	}
}

func TestIntervalCompression(t *testing.T) {
	// A smooth series files long runs of consecutive positions under the
	// same key, so intervals must be far fewer than windows.
	ts := datasets.Sine(13, 20000, 5000, 10, 0)
	ix, _ := buildOver(t, ts, series.NormNone, 100)
	if ix.IntervalCount() >= ix.Len()/2 {
		t.Fatalf("interval compression ineffective: %d intervals for %d windows", ix.IntervalCount(), ix.Len())
	}
}

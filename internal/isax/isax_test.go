package isax

import (
	"testing"

	"twinsearch/internal/datasets"
	"twinsearch/internal/oracle"
	"twinsearch/internal/series"
)

func buildOver(t *testing.T, ts []float64, mode series.NormMode, cfg Config) (*Index, *series.Extractor) {
	t.Helper()
	ext := series.NewExtractor(ts, mode)
	ix, err := Build(ext, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	return ix, ext
}

func TestRejectsBadConfig(t *testing.T) {
	ext := series.NewExtractor(datasets.RandomWalk(1, 200), series.NormGlobal)
	if _, err := Build(ext, Config{L: 0, Segments: 5}); err == nil {
		t.Fatal("L=0 must fail")
	}
	if _, err := Build(ext, Config{L: 50, Segments: 0}); err == nil {
		t.Fatal("Segments=0 must fail")
	}
	if _, err := Build(ext, Config{L: 50, Segments: 51}); err == nil {
		t.Fatal("Segments > L must fail")
	}
	if _, err := Build(ext, Config{L: 300, Segments: 5}); err == nil {
		t.Fatal("L > n must fail")
	}
}

// TestMatchesSweeplineAllModes holds the index to the definition of twin search
// (internal/oracle: every window, plain series.Chebyshev) — not to the
// sweepline, which verifies through the same series.Verifier as this
// index. The name is the brute-force scan the oracle spells out.
func TestMatchesSweeplineAllModes(t *testing.T) {
	for _, tc := range []struct {
		name string
		ts   []float64
		mode series.NormMode
		eps  []float64
	}{
		{"walk-raw", datasets.RandomWalk(2, 4000), series.NormNone, []float64{0.5, 2, 5}},
		{"walk-global", datasets.RandomWalk(2, 4000), series.NormGlobal, []float64{0.1, 0.3, 0.6}},
		{"walk-persub", datasets.RandomWalk(2, 4000), series.NormPerSubsequence, []float64{0.2, 0.5}},
		{"sine-global", datasets.Sine(4, 4000, 150, 2, 0.1), series.NormGlobal, []float64{0.1, 0.3}},
		{"eeg-persub", datasets.EEGN(6, 6000), series.NormPerSubsequence, []float64{0.3, 0.8}},
	} {
		// Small leaf capacity forces deep splits, exercising the
		// cardinality-refinement machinery.
		ix, ext := buildOver(t, tc.ts, tc.mode, Config{L: 80, Segments: 8, LeafCapacity: 64})
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

func TestSplitsHappen(t *testing.T) {
	ts := datasets.RandomWalk(3, 8000)
	ix, _ := buildOver(t, ts, series.NormGlobal, Config{L: 64, Segments: 4, LeafCapacity: 32})
	if ix.NodeCount() <= len(ts)/1000 {
		t.Fatalf("expected many nodes with tiny capacity, got %d", ix.NodeCount())
	}
	if ix.Len() != series.NumSubsequences(len(ts), 64) {
		t.Fatalf("Len = %d", ix.Len())
	}
}

func TestPruningEffective(t *testing.T) {
	ts := datasets.EEGN(8, 20000)
	ix, ext := buildOver(t, ts, series.NormGlobal, Config{L: 100, Segments: 10, LeafCapacity: 128})
	q := ext.ExtractCopy(5000, 100)
	_, st := ix.SearchStats(q, 0.2)
	if st.NodesPruned == 0 {
		t.Fatal("no pruning on a tight threshold")
	}
	if st.Candidates >= ix.Len() {
		t.Fatal("filter admitted every window; index is useless")
	}
	if st.Results > st.Candidates {
		t.Fatal("funnel violated")
	}
}

func TestStatsLooseThresholdHitsEverything(t *testing.T) {
	ts := datasets.RandomWalk(4, 2000)
	ix, ext := buildOver(t, ts, series.NormGlobal, Config{L: 50, Segments: 5, LeafCapacity: 64})
	q := ext.ExtractCopy(100, 50)
	ms, st := ix.SearchStats(q, 1e6)
	if len(ms) != ix.Len() {
		t.Fatalf("huge eps must match every window: %d vs %d", len(ms), ix.Len())
	}
	if st.NodesPruned != 0 {
		t.Fatal("nothing should be pruned at huge eps")
	}
}

func TestRawModeUsesFittedQuantizer(t *testing.T) {
	// Raw values far from N(0,1): with standard breakpoints every symbol
	// would saturate; the fitted quantizer must spread them.
	ts := make([]float64, 3000)
	walk := datasets.RandomWalk(5, 3000)
	for i := range ts {
		ts[i] = 500 + 20*walk[i]
	}
	ix, ext := buildOver(t, ts, series.NormNone, Config{L: 60, Segments: 6, LeafCapacity: 64})
	if ix.Quantizer().Mean() == 0 && ix.Quantizer().Std() == 1 {
		t.Fatal("raw build should fit the quantizer to the data")
	}
	q := ext.ExtractCopy(777, 60)
	got := ix.Search(q, 15)
	want := oracle.Range(ext, q, 15)
	if len(got) != len(want) {
		t.Fatalf("raw search: %d matches, want %d", len(got), len(want))
	}
}

func TestIdenticalWindowsOversizedLeaf(t *testing.T) {
	// A constant series makes every window identical: no segment can
	// separate entries, so the index must fall back to one oversized
	// leaf rather than loop forever.
	ts := make([]float64, 300)
	for i := range ts {
		ts[i] = 1
	}
	ix, ext := buildOver(t, ts, series.NormNone, Config{L: 20, Segments: 4, LeafCapacity: 8})
	q := ext.ExtractCopy(0, 20)
	ms := ix.Search(q, 0.1)
	if len(ms) != series.NumSubsequences(300, 20) {
		t.Fatalf("got %d matches", len(ms))
	}
}

func TestQueryLengthPanic(t *testing.T) {
	ix, _ := buildOver(t, datasets.RandomWalk(1, 500), series.NormGlobal, Config{L: 50, Segments: 5})
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	ix.Search(make([]float64, 10), 1)
}

func TestMemoryBytesGrowsWithData(t *testing.T) {
	small, _ := buildOver(t, datasets.RandomWalk(1, 1000), series.NormGlobal, Config{L: 50, Segments: 5})
	large, _ := buildOver(t, datasets.RandomWalk(1, 10000), series.NormGlobal, Config{L: 50, Segments: 5})
	if small.MemoryBytes() >= large.MemoryBytes() {
		t.Fatalf("memory accounting flat: %d vs %d", small.MemoryBytes(), large.MemoryBytes())
	}
}

func TestSelfQueryAlwaysFound(t *testing.T) {
	ts := datasets.InsectN(7, 10000)
	for _, mode := range []series.NormMode{series.NormNone, series.NormGlobal, series.NormPerSubsequence} {
		ix, ext := buildOver(t, ts, mode, Config{L: 100, Segments: 10, LeafCapacity: 256})
		for _, p := range []int{0, 1234, 9900} {
			q := ext.ExtractCopy(p, 100)
			found := false
			for _, m := range ix.Search(q, 0) {
				if m.Start == p {
					found = true
				}
			}
			if !found {
				t.Fatalf("mode=%v: window %d not found by its own query", mode, p)
			}
		}
	}
}

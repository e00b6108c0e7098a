package core

import (
	"fmt"
	"slices"
	"testing"

	"twinsearch/internal/datasets"
	"twinsearch/internal/oracle"
	"twinsearch/internal/series"
)

// frozenOver builds an index over ts and holds it to checkSealed.
func frozenOver(t *testing.T, ts []float64, mode series.NormMode, cfg Config) (*Frozen, *series.Extractor) {
	t.Helper()
	ext := series.NewExtractor(ts, mode)
	f, err := Build(ext, cfg)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	checkSealed(t, f, 0, series.NumSubsequences(ext.Len(), f.L()))
	return f, ext
}

// checkSealed is the tree check: the arena's invariants
// (Frozen.CheckInvariants), and every window of [lo, hi) held exactly
// once.
func checkSealed(t testing.TB, f *Frozen, lo, hi int) {
	t.Helper()
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	held := slices.Clone(f.Positions())
	slices.Sort(held)
	for i, p := range held {
		if int(p) != lo+i {
			t.Fatalf("held position %d is %d: the tree does not hold every window of [%d, %d) once", i, p, lo, hi)
		}
	}
	if len(held) != hi-lo {
		t.Fatalf("the tree holds %d windows, [%d, %d) has %d", len(held), lo, hi, hi-lo)
	}
}

// grow inserts the windows [lo, hi) of ext into a new builder, for the
// tests that look at the tree before Build seals it, or seal it part-way.
func grow(t testing.TB, ext *series.Extractor, cfg Config, lo, hi int) *builder {
	t.Helper()
	ix, err := newBuilder(ext, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for p := lo; p < hi; p++ {
		ix.add(p)
	}
	return ix
}

func TestConfigValidation(t *testing.T) {
	ext := series.NewExtractor(datasets.RandomWalk(1, 200), series.NormGlobal)
	if _, err := Build(ext, Config{L: 0}); err == nil {
		t.Fatal("L=0 must fail")
	}
	if _, err := Build(ext, Config{L: 50, MinCap: 0, MaxCap: 30}); err != nil {
		t.Fatalf("MinCap default should apply: %v", err)
	}
	if _, err := Build(ext, Config{L: 50, MinCap: -2, MaxCap: 30}); err == nil {
		t.Fatal("negative MinCap must fail")
	}
	if _, err := Build(ext, Config{L: 50, MinCap: 10, MaxCap: 18}); err == nil {
		t.Fatal("MaxCap < 2·MinCap−1 must fail")
	}
	if _, err := Build(ext, Config{L: 50, MinCap: 10, MaxCap: 19}); err != nil {
		t.Fatalf("MaxCap = 2·MinCap−1 must pass: %v", err)
	}
	if _, err := Build(ext, Config{L: 50, MaxCap: maxNodeCap}); err != nil {
		t.Fatalf("MaxCap = %d must pass: %v", maxNodeCap, err)
	}
	if _, err := Build(ext, Config{L: 50, MaxCap: maxNodeCap + 1}); err == nil {
		t.Fatalf("MaxCap > %d must fail", maxNodeCap)
	}
	if _, err := Build(ext, Config{L: 500}); err == nil {
		t.Fatal("L > n must fail")
	}
}

func TestMatchesOracleAllModes(t *testing.T) {
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
		{"insect-raw", datasets.InsectN(5, 5000), series.NormNone, []float64{1, 3}},
	} {
		f, ext := frozenOver(t, tc.ts, tc.mode, Config{L: 80})
		q := ext.ExtractCopy(1000, 80)
		for _, eps := range tc.eps {
			got := f.Search(q, eps)
			want := oracle.Range(ext, q, eps)
			if !slices.Equal(got, want) {
				t.Fatalf("%s eps=%v: %d matches, want %d", tc.name, eps, len(got), len(want))
			}
		}
	}
}

func TestTreeGrowsInHeight(t *testing.T) {
	ts := datasets.RandomWalk(3, 5000)
	f, _ := frozenOver(t, ts, series.NormGlobal, Config{L: 50})
	if f.Height() < 3 {
		t.Fatalf("5k windows at Mc=30 should give height ≥ 3, got %d", f.Height())
	}
	if f.Len() != series.NumSubsequences(len(ts), 50) {
		t.Fatalf("Len = %d", f.Len())
	}
	if f.NodeCount() <= f.Len()/31 {
		t.Fatalf("NodeCount = %d too small", f.NodeCount())
	}
	if f.L() != 50 {
		t.Fatalf("L = %d", f.L())
	}
	if f.Extractor() == nil {
		t.Fatal("Extractor accessor broken")
	}
}

func TestIncrementalInsertInvariants(t *testing.T) {
	// Invariants must hold at every prefix of the insertion sequence,
	// not just at the end: the tree sealed part-way is checked, and the
	// builder goes on inserting (freeze shares nothing with it).
	ts := datasets.InsectN(11, 800)
	ext := series.NewExtractor(ts, series.NormGlobal)
	ix := grow(t, ext, Config{L: 40, MinCap: 2, MaxCap: 4}, 0, 0)
	count := series.NumSubsequences(len(ts), 40)
	for p := 0; p < count; p++ {
		ix.add(p)
		if p%50 == 0 || p == count-1 {
			if !t.Run(fmt.Sprintf("after %d inserts", p+1), func(t *testing.T) {
				checkSealed(t, ix.freeze(), 0, p+1)
			}) {
				return
			}
		}
	}
}

func TestTinyCapacitiesDeepTree(t *testing.T) {
	ts := datasets.Sine(7, 1200, 90, 1.5, 0.2)
	f, ext := frozenOver(t, ts, series.NormGlobal, Config{L: 30, MinCap: 2, MaxCap: 4})
	if f.Height() < 4 {
		t.Fatalf("tiny caps should give a deep tree, got height %d", f.Height())
	}
	q := ext.ExtractCopy(200, 30)
	got := f.Search(q, 0.25)
	want := oracle.Range(ext, q, 0.25)
	if !slices.Equal(got, want) {
		t.Fatalf("deep tree search: %d vs %d", len(got), len(want))
	}
}

func TestSearchStatsFunnel(t *testing.T) {
	ts := datasets.EEGN(8, 20000)
	f, ext := frozenOver(t, ts, series.NormGlobal, Config{L: 100})
	q := ext.ExtractCopy(5000, 100)
	ms, st := f.SearchStats(q, 0.2)
	if st.NodesPruned == 0 {
		t.Fatal("tight threshold should prune")
	}
	if st.Candidates >= f.Len() {
		t.Fatal("filter admitted everything")
	}
	if st.Results != len(ms) {
		t.Fatal("Results counter mismatch")
	}
	if st.LeavesReached == 0 || st.NodesVisited == 0 {
		t.Fatal("counters not recorded")
	}
}

func TestEmptyIndexSearch(t *testing.T) {
	ext := series.NewExtractor(datasets.RandomWalk(1, 100), series.NormGlobal)
	f := grow(t, ext, Config{L: 20}, 0, 0).freeze()
	if ms := f.Search(make([]float64, 20), 1); ms != nil {
		t.Fatal("empty index must return nil")
	}
	checkSealed(t, f, 0, 0)
}

func TestQueryLengthPanic(t *testing.T) {
	f, _ := frozenOver(t, datasets.RandomWalk(1, 500), series.NormGlobal, Config{L: 50})
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	f.Search(make([]float64, 51), 1) // 1…L is a range query
}

func TestSelfQueryAlwaysFound(t *testing.T) {
	ts := datasets.InsectN(7, 10000)
	for _, mode := range []series.NormMode{series.NormNone, series.NormGlobal, series.NormPerSubsequence} {
		f, ext := frozenOver(t, ts, mode, Config{L: 100})
		for _, p := range []int{0, 1234, 9900} {
			q := ext.ExtractCopy(p, 100)
			found := false
			for _, m := range f.Search(q, 0) {
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

func TestHugeEpsilonReturnsEverything(t *testing.T) {
	ts := datasets.RandomWalk(4, 2000)
	f, ext := frozenOver(t, ts, series.NormGlobal, Config{L: 50})
	q := ext.ExtractCopy(100, 50)
	ms, st := f.SearchStats(q, 1e9)
	if len(ms) != f.Len() {
		t.Fatalf("huge eps must match everything: %d vs %d", len(ms), f.Len())
	}
	if st.NodesPruned != 0 {
		t.Fatal("nothing should be pruned at huge eps")
	}
}

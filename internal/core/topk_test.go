package core

import (
	"slices"
	"testing"

	"twinsearch/internal/datasets"
	"twinsearch/internal/oracle"
	"twinsearch/internal/series"
)

func TestTopKMatchesBrute(t *testing.T) {
	for _, tc := range []struct {
		name string
		ts   []float64
		mode series.NormMode
	}{
		{"walk-global", datasets.RandomWalk(2, 3000), series.NormGlobal},
		{"sine-global", datasets.Sine(4, 3000, 150, 2, 0.1), series.NormGlobal},
		{"insect-raw", datasets.InsectN(5, 3000), series.NormNone},
		{"eeg-persub", datasets.EEGN(6, 3000), series.NormPerSubsequence},
	} {
		f, ext := frozenOver(t, tc.ts, tc.mode, Config{L: 60})
		q := ext.ExtractCopy(800, 60)
		for _, k := range []int{1, 5, 25} {
			got := f.SearchTopK(q, k)
			want := oracle.TopK(ext, q, k)
			if len(got) != len(want) {
				t.Fatalf("%s k=%d: %d results, want %d", tc.name, k, len(got), len(want))
			}
			for i := range want {
				// Distances must agree exactly; tie order is normalized
				// by start in both implementations.
				if got[i].Dist != want[i].Dist {
					t.Fatalf("%s k=%d rank %d: dist %v, want %v", tc.name, k, i, got[i].Dist, want[i].Dist)
				}
				if got[i].Start != want[i].Start {
					t.Fatalf("%s k=%d rank %d: start %d, want %d", tc.name, k, i, got[i].Start, want[i].Start)
				}
			}
		}
	}
}

func TestTopKSelfNearest(t *testing.T) {
	ts := datasets.RandomWalk(9, 2000)
	f, ext := frozenOver(t, ts, series.NormGlobal, Config{L: 80})
	q := ext.ExtractCopy(555, 80)
	got := f.SearchTopK(q, 1)
	if len(got) != 1 || got[0].Start != 555 || got[0].Dist != 0 {
		t.Fatalf("nearest to a window must be itself: %+v", got)
	}
}

func TestTopKDegenerate(t *testing.T) {
	ts := datasets.RandomWalk(1, 500)
	f, ext := frozenOver(t, ts, series.NormGlobal, Config{L: 50})
	q := ext.ExtractCopy(0, 50)
	if ms := f.SearchTopK(q, 0); ms != nil {
		t.Fatal("k=0 should return nil")
	}
	if ms := f.SearchTopK(q, -3); ms != nil {
		t.Fatal("k<0 should return nil")
	}
	// k larger than the index returns everything, sorted.
	all := f.SearchTopK(q, 10_000)
	if len(all) != f.Len() {
		t.Fatalf("k>n should return all %d, got %d", f.Len(), len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Dist < all[i-1].Dist {
			t.Fatal("results must be sorted by distance")
		}
	}
}

func TestTopKEmptyIndex(t *testing.T) {
	ext := series.NewExtractor(datasets.RandomWalk(1, 100), series.NormGlobal)
	if ms := grow(t, ext, Config{L: 20}, 0, 0).freeze().SearchTopK(make([]float64, 20), 5); ms != nil {
		t.Fatal("empty index should return nil")
	}
}

func TestTopKConsistentWithThresholdSearch(t *testing.T) {
	// The k-th distance defines a threshold; threshold search at that
	// distance must return at least k results.
	ts := datasets.EEGN(10, 5000)
	f, ext := frozenOver(t, ts, series.NormGlobal, Config{L: 100})
	q := ext.ExtractCopy(2000, 100)
	top := f.SearchTopK(q, 10)
	if len(top) != 10 {
		t.Fatalf("got %d", len(top))
	}
	eps := top[len(top)-1].Dist
	ms := f.Search(q, eps)
	if len(ms) < 10 {
		t.Fatalf("threshold search at k-th distance returned %d < 10", len(ms))
	}
}

// TestFrozenTopKAllocs pins the top-k allocation budget on the serving
// shape (bench/'s generator, L, norm and k; a quarter of its length so
// the race leg stays quick): the result heap and the returned slice.
// The node queue's buffer is recycled, so its growth costs nothing once
// warm (BenchmarkFrozenTopK reports 2 at 200 000 points; while each
// query grew its own queue, 5). Boxing every heap element through
// container/heap cost ≈1900 allocations per query. The budget is not
// asserted under -race, under which sync.Pool drops a share of its
// Puts (see raceEnabled).
func TestFrozenTopKAllocs(t *testing.T) {
	data := datasets.EEGN(1, 50000)
	f, ext := frozenOver(t, data, series.NormGlobal, Config{L: 100})
	for _, raw := range datasets.Queries(data, 7, 8, 100) {
		q := ext.TransformQuery(raw)
		if avg := testing.AllocsPerRun(10, func() { f.SearchTopK(q, 10) }); avg > 7 && !raceEnabled {
			t.Fatalf("Frozen.SearchTopK(k=10): %.0f allocs/query, budget 7", avg)
		}
	}
}

// TestTopKUnitStats checks the counters the top-k traversal reports:
// they balance (every evaluated node is expanded, pruned, or a scored
// leaf; every candidate is abandoned or survives to a full distance),
// come with the oracle's answer, and show the limit doing its job —
// most candidates of a small-k query are abandoned. (Their exact values
// are pinned by TestTraversalGoldenStats.)
func TestTopKUnitStats(t *testing.T) {
	data := datasets.EEGN(9, 6000)
	f, ext := frozenOver(t, data, series.NormGlobal, Config{L: 60})
	q := ext.ExtractCopy(1234, 60)
	ms, st := f.SearchTopKShared(q, 5, nil)
	if want := oracle.TopK(ext, q, 5); !slices.Equal(ms, want) {
		t.Fatalf("traversal answered %v, oracle %v", ms, want)
	}
	if st.Results != 0 {
		t.Fatalf("traversal set Results = %d; the caller owns it", st.Results)
	}
	if st.NodesVisited <= st.NodesPruned || st.LeavesReached == 0 || st.LeavesReached > st.NodesVisited-st.NodesPruned {
		t.Fatalf("node counters do not balance: %+v", st)
	}
	if st.Candidates < len(ms) || st.Abandons > st.Candidates-len(ms) {
		t.Fatalf("candidate counters do not balance: %+v for %d results", st, len(ms))
	}
	if st.Abandons*2 < st.Candidates {
		t.Fatalf("limit abandoned only %d of %d candidates", st.Abandons, st.Candidates)
	}

	// A shared bound below the tree's nearest window excludes it at
	// the root: one node evaluated, one pruned, nothing scored.
	sb := NewSharedBound()
	sb.Tighten(0)
	far := make([]float64, 60)
	for i := range far {
		far[i] = q[i] + 100
	}
	ms, st = f.SearchTopKShared(far, 5, sb)
	if ms != nil || st != (Stats{NodesVisited: 1, NodesPruned: 1}) {
		t.Fatalf("root-excluded tree: %v, %+v", ms, st)
	}
}

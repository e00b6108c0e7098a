package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"twinsearch/internal/datasets"
	"twinsearch/internal/series"
)

// TestTraversalGoldenStats pins the work every frozen traversal does —
// all six counters of range, approximate, prefix and top-k search — on
// a fixed grid, as TestBuildGoldenTree pins the tree they walk. The
// sums were captured at PR 15 (1801d8e), the last commit where the
// pointer tree was searchable, with the pointer traversals asserted
// equal to the frozen ones in matches and Stats on this very grid under
// all three kernel dispatches: they are the counter contract the
// pointer ≡ frozen parity tests carried until then. A traversal rewrite
// may change how fast a node is scored, never which nodes are scored.
//
// L = 101 leaves one tail lane after the kernel's 4-lane steps, and
// MaxCap = 80 makes nodes wider than sweepScratchCap, so the
// child-distance scratch spills.
//
// Rows keep the "/bulk=false" suffix they carried while bottom-up
// bulk-loaded trees had rows beside them, so every row keeps its name.
func TestTraversalGoldenStats(t *testing.T) {
	data := datasets.EEGN(5, 12000)
	defaults := Config{L: 100}
	wide := Config{L: 101, MinCap: 30, MaxCap: 80}
	for _, c := range []struct {
		cfg  Config
		mode series.NormMode
		want string
	}{
		{defaults, series.NormNone, "9800c24d59c0c5e4a3e42100147ea18d6167ec55efe0997b71eebb5b7f684b97"},
		{defaults, series.NormGlobal, "214221520470d95fb36d99992e14f072b5fb9c860c70cc039ed9ac67645d8ff4"},
		{defaults, series.NormPerSubsequence, "e4836ba9db77e05d5f9f76fcd99f9d02be89d5a0e18344d2cf97933ddf1c9376"},
		{wide, series.NormNone, "5dc003b95a20c4f99f6795ecf0bd18a0fcd5948ef6d862b8a9fe5a1333e508e3"},
		{wide, series.NormGlobal, "412c81f800c4844c8fed2d4511096bb75ff7add5f2752a23b0f7fd32fd9c94e6"},
		{wide, series.NormPerSubsequence, "7aff184b9648618c62385e0c588f6174277efef85643a2a86f03753761f4b796"},
	} {
		t.Run(fmt.Sprintf("L=%d/Mc=%d/%v/bulk=false", c.cfg.L, c.cfg.MaxCap, c.mode), func(t *testing.T) {
			ext := series.NewExtractor(data, c.mode)
			ix, err := Build(ext, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			f := ix.Freeze()
			h := sha256.New()
			put := func(path string, st Stats) {
				fmt.Fprintf(h, "%s %d %d %d %d %d %d\n", path, st.NodesVisited, st.NodesPruned, st.LeavesReached, st.Candidates, st.Abandons, st.Results)
			}
			l := c.cfg.L
			for _, start := range []int{17, 4000, f.Len() - 1} {
				q := ext.ExtractCopy(start, l)
				for _, eps := range []float64{0, 0.2, 1.0} {
					_, st := f.SearchStats(q, eps)
					put("range", st)
					_, st = f.SearchApprox(q, eps, 4)
					put("approx", st)
					if c.mode != series.NormPerSubsequence {
						ms, st := f.rangeFrom(f.Root(), q[:l-37], eps)
						st.Results = len(ms)
						put("prefix", st)
					}
				}
				for _, k := range []int{1, 10, 90} {
					ms, st := f.SearchTopKSharedFrom(f.Root(), q, k, nil)
					st.Results = len(ms)
					put("topk", st)
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Errorf("traversal work changed: stats sha-256 %s, want %s", got, c.want)
			}
		})
	}
}

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
// all six counters of range, prefix and top-k search — on
// a fixed grid, as TestBuildGoldenTree pins the tree they walk. The
// sums were captured at PR 15 (1801d8e), the last commit where the
// pointer tree was searchable, with the pointer traversals asserted
// equal to the frozen ones in matches and Stats on this very grid under
// all three kernel dispatches: they are the counter contract the
// pointer ≡ frozen parity tests carried until then. A traversal rewrite
// may change how fast a node is scored, never which nodes are scored.
// The approximate probe's rows left the stream when that path was
// deleted; the constants are the remaining rows' hash, taken at
// 0b7a244, where the full stream still matched the 1801d8e sums. The
// three MaxCap = 80 hashes were taken again when the top-k frontier
// began popping equal lower bounds in node-id order instead of in an
// order its binary heap's shape decided: their top-k rows kept every
// counter but Abandons, which counts against a limit that depends on
// which of two equally bounded leaves is verified first (CHANGES.md
// holds the rows' diff).
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
		{defaults, series.NormNone, "d39154f717177c9ba771d697b6216d4b361d02e73ba49d07630f1aecd9c5eaad"},
		{defaults, series.NormGlobal, "0a0e95ab435550ed495f3bb639f770efabdc1a6ac44629958f48952d507683ad"},
		{defaults, series.NormPerSubsequence, "2e2fe360d0c29898f341b3f5bee21b6124c486972223c66e79984b6d776025f0"},
		{wide, series.NormNone, "a3c5d5bb6d5adb90911bede881ea62eab64f332967c03318bd3850e7da1b15b3"},
		{wide, series.NormGlobal, "380f2fdbfd90af4fd31e9e679c411ffbb14c28357d844220bd395aa0af22e551"},
		{wide, series.NormPerSubsequence, "4de0036f2e75cb5c998e7d0e2c73071d59d697e2e4d00ca98fe0ccf6921bd0bd"},
	} {
		t.Run(fmt.Sprintf("L=%d/Mc=%d/%v/bulk=false", c.cfg.L, c.cfg.MaxCap, c.mode), func(t *testing.T) {
			ext := series.NewExtractor(data, c.mode)
			f, err := Build(ext, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
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
					if c.mode != series.NormPerSubsequence {
						ms, st := f.traverseRange(q[:l-37], eps)
						st.Results = len(ms)
						put("prefix", st)
					}
				}
				for _, k := range []int{1, 10, 90} {
					ms, st := f.SearchTopKShared(q, k, nil)
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

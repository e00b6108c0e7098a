package harness

import "testing"

// TestFigureShape asserts the paper's qualitative results on freshly
// run rows, never against the golden file: TS-Index verifies fewer
// candidates than KV-Index and iSAX in every row of Figures 4, 5 and 7,
// and fewer than iSAX in every row of Figure 6 (KV-Index does not run
// under per-subsequence normalization); and Figure 7's counters equal
// Figure 4's row for row, since raw data at ε·σ admits exactly the
// windows globally normalized data admits at ε.
//
// The candidate relation holds for workload averages, not for every
// workload: at 10 queries with seed 1, Figure 5's Insect row at l = 50
// has TS-Index at 13 269.2 candidates against iSAX's 13 059.7. The test
// runs the workloads it names as they are and asserts on their
// averages — at tinyRunner's scale and, unless -short, at scale 0.1
// with 30 queries in memory.
func TestFigureShape(t *testing.T) {
	t.Run("tiny", func(t *testing.T) {
		checkFigureShape(t, tinyRunner())
	})
	t.Run("scale=0.1/queries=30", func(t *testing.T) {
		if testing.Short() {
			t.Skip("runs Figures 4-7 at scale 0.1 (about 10 s)")
		}
		r := NewRunner(0.1, 1)
		r.Queries = 30
		r.DiskVerify = false
		checkFigureShape(t, r)
	})
}

// checkFigureShape runs Figures 4-7 once on r and checks both relations.
func checkFigureShape(t *testing.T, r *Runner) {
	t.Helper()
	defer r.Close()
	fig4, fig7 := r.Figure4(), r.Figure7()
	for _, fig := range []struct {
		rows   []Row
		beaten []string // methods TS-Index must verify fewer candidates than
	}{
		{fig4, []string{"KV-Index", "iSAX"}},
		{r.Figure5(), []string{"KV-Index", "iSAX"}},
		{r.Figure6(), []string{"iSAX"}},
		{fig7, []string{"KV-Index", "iSAX"}},
	} {
		checkFewestCandidates(t, fig.rows, fig.beaten)
	}
	checkSameCounters(t, fig4, fig7)
}

// checkFewestCandidates requires every TS-Index row to have a row of
// each beaten method at the same dataset and parameter, with more
// candidates than TS-Index's.
func checkFewestCandidates(t *testing.T, rows []Row, beaten []string) {
	t.Helper()
	type cell struct{ dataset, method, param string }
	cands := map[cell]float64{}
	for _, row := range rows {
		cands[cell{row.Dataset, row.Method, row.Param}] = row.AvgCandidates
	}
	checked := 0
	for _, row := range rows {
		if row.Method != "TS-Index" {
			continue
		}
		for _, m := range beaten {
			other, ok := cands[cell{row.Dataset, m, row.Param}]
			switch {
			case !ok:
				t.Errorf("Figure %s %s %s: no %s row to compare TS-Index with", row.Figure, row.Dataset, row.Param, m)
			case row.AvgCandidates >= other:
				t.Errorf("Figure %s %s %s: TS-Index verifies %v candidates, %s %v", row.Figure, row.Dataset, row.Param, row.AvgCandidates, m, other)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Errorf("no TS-Index rows among %d", len(rows))
	}
}

// checkSameCounters requires Figure 7 to repeat Figure 4's candidates
// and results, pairing rows by position within (dataset, method): the
// ε labels differ, raw against normalized.
func checkSameCounters(t *testing.T, fig4, fig7 []Row) {
	t.Helper()
	byMethod := func(rows []Row) map[string][]Row {
		m := map[string][]Row{}
		for _, row := range rows {
			k := row.Dataset + "/" + row.Method
			m[k] = append(m[k], row)
		}
		return m
	}
	want, got := byMethod(fig4), byMethod(fig7)
	if len(want) != len(got) {
		t.Errorf("Figure 4 has %d (dataset, method) groups, Figure 7 %d", len(want), len(got))
	}
	for k, ws := range want {
		gs := got[k]
		if len(gs) != len(ws) {
			t.Errorf("%s: Figure 4 has %d rows, Figure 7 %d", k, len(ws), len(gs))
			continue
		}
		for i, w := range ws {
			g := gs[i]
			if g.AvgCandidates != w.AvgCandidates || g.AvgResults != w.AvgResults {
				t.Errorf("%s row %d: Figure 7 %s counts %v candidates, %v results; Figure 4 %s %v, %v",
					k, i, g.Param, g.AvgCandidates, g.AvgResults, w.Param, w.AvgCandidates, w.AvgResults)
			}
		}
	}
	if len(fig4) == 0 {
		t.Error("Figure 4 has no rows")
	}
}

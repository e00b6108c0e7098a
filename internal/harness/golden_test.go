package harness

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// goldenCounts is the file pinning every Figure 4–7 row's counters
// under tinyRunner().
const goldenCounts = "testdata/figure_counts.golden"

// countLines renders Figures 4–7 as one line per row: the row's
// identity, then AvgCandidates and AvgResults in shortest round-trip
// form — the exact counters, never a clock.
func countLines(r *Runner) []string {
	var lines []string
	for _, fig := range []func() []Row{r.Figure4, r.Figure5, r.Figure6, r.Figure7} {
		for _, row := range fig() {
			lines = append(lines, strings.Join([]string{
				row.Figure, row.Dataset, row.Method, row.Param,
				strconv.FormatFloat(row.AvgCandidates, 'g', -1, 64),
				strconv.FormatFloat(row.AvgResults, 'g', -1, 64),
			}, "\t"))
		}
	}
	return lines
}

// TestFigureCountsGolden pins how many candidates each method verifies
// and how many twins it reports, per row of Figures 4–7, in memory and
// on disk. Both are deterministic for a seed, so the paper's filters
// are held exactly: a change to verification may move a row's time,
// never its counters.
func TestFigureCountsGolden(t *testing.T) {
	raw, err := os.ReadFile(goldenCounts)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for _, disk := range []bool{false, true} {
		t.Run(fmt.Sprintf("disk=%v", disk), func(t *testing.T) {
			r := tinyRunner()
			r.DiskVerify = disk
			defer r.Close()
			got := countLines(r)
			if len(got) != len(want) {
				t.Fatalf("%d rows, golden has %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("row %d:\n got  %s\n want %s", i, got[i], want[i])
				}
			}
		})
	}
}

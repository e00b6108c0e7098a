package harness

import (
	"bytes"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"twinsearch/internal/series"
)

// tinyRunner shrinks everything so harness tests run in seconds — one
// pass per cell, the counters being the same on every pass
// (TestPassesInterleaved times several); the disk-resident verification
// path has its own dedicated test.
func tinyRunner() *Runner {
	r := NewRunner(0.002, 42) // EEG ≈ 3.6k points
	r.Queries = 5
	r.Passes = 1
	r.DiskVerify = false
	insect := Insect(42, 0)
	insect.Data = insect.Data[:4000]
	r.insect = &insect
	return r
}

func TestDiskVerifyAgreesWithMemory(t *testing.T) {
	mem := tinyRunner()
	disk := tinyRunner()
	disk.DiskVerify = true
	defer disk.Close()

	memRows := mem.Figure4()
	diskRows := disk.Figure4()
	if len(memRows) != len(diskRows) {
		t.Fatalf("row count differs: %d vs %d", len(memRows), len(diskRows))
	}
	for i := range memRows {
		a, b := memRows[i], diskRows[i]
		if a.Method != b.Method || a.Param != b.Param || a.Dataset != b.Dataset {
			t.Fatalf("row %d identity mismatch", i)
		}
		if a.AvgResults != b.AvgResults || a.AvgCandidates != b.AvgCandidates {
			t.Fatalf("row %d (%s %s %s): disk results/candidates %v/%v differ from memory %v/%v",
				i, a.Dataset, a.Method, a.Param, b.AvgResults, b.AvgCandidates, a.AvgResults, a.AvgCandidates)
		}
	}
	disk.Close()
	if len(disk.diskStores) != 0 || len(disk.diskFiles) != 0 {
		t.Fatal("Close did not clear disk state")
	}
}

// TestPassesInterleaved times Figure 4 and the intro experiment three
// times per cell: every row reports its passes and a non-negative
// spread, and the counters equal a one-pass run's row for row.
func TestPassesInterleaved(t *testing.T) {
	one, three := tinyRunner(), tinyRunner()
	three.Passes = 3
	for _, fig := range []struct {
		name       string
		once, many func() []Row
	}{{"4", one.Figure4, three.Figure4}, {"intro", one.FigureIntro, three.FigureIntro}} {
		want, got := fig.once(), fig.many()
		if len(got) != len(want) {
			t.Fatalf("Figure %s: %d rows over 3 passes, %d over one", fig.name, len(got), len(want))
		}
		for i, row := range got {
			if row.Passes != 3 || row.QueryMsIQR < 0 || row.AvgQueryMs <= 0 {
				t.Errorf("Figure %s row %d: %d passes, median %v ms, IQR %v ms", fig.name, i, row.Passes, row.AvgQueryMs, row.QueryMsIQR)
			}
			w := want[i]
			if row.Method != w.Method || row.Param != w.Param || row.AvgResults != w.AvgResults || row.AvgCandidates != w.AvgCandidates {
				t.Errorf("Figure %s row %d: %+v over 3 passes, %+v over one", fig.name, i, row, w)
			}
		}
	}
}

// TestMedianIQR pins the quartile rule: linear interpolation between
// order statistics, whatever the input order.
func TestMedianIQR(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		median, iqr float64
	}{
		{nil, 0, 0},
		{[]float64{4}, 4, 0},
		{[]float64{3, 1}, 2, 1},
		{[]float64{5, 1, 4, 2, 3}, 3, 2},
		{[]float64{10, 1, 2, 3}, 2.5, 3}, // quartiles 1.75 and 4.75
	} {
		if q1, med, q3 := quartiles(slices.Clone(c.xs)); med != c.median || q3-q1 != c.iqr {
			t.Errorf("quartiles(%v) = (%v, %v, %v), want median %v and IQR %v", c.xs, q1, med, q3, c.median, c.iqr)
		}
	}
}

func TestDatasetsMaterializeOnce(t *testing.T) {
	r := tinyRunner()
	if r.EEG() != r.EEG() {
		t.Fatal("EEG should be cached")
	}
	if r.Insect() != r.Insect() {
		t.Fatal("Insect should be cached")
	}
	if len(r.Datasets()) != 2 {
		t.Fatal("want two datasets")
	}
}

func TestFigure4ShapesAndCoverage(t *testing.T) {
	r := tinyRunner()
	rows := r.Figure4()
	// 2 datasets × 4 methods × 5 thresholds.
	if len(rows) != 2*4*5 {
		t.Fatalf("got %d rows", len(rows))
	}
	seen := map[string]bool{}
	for _, row := range rows {
		if row.Figure != "4" {
			t.Fatalf("row figure = %q", row.Figure)
		}
		if row.AvgQueryMs < 0 {
			t.Fatal("negative latency")
		}
		seen[row.Method] = true
		// The workload samples queries from the series itself, so every
		// query matches at least itself.
		if row.AvgResults < 1 {
			t.Fatalf("%s %s %s: avg results %v < 1 (self-match missing)",
				row.Dataset, row.Method, row.Param, row.AvgResults)
		}
	}
	for _, m := range AllMethods {
		if !seen[m.String()] {
			t.Fatalf("method %v missing from Figure 4", m)
		}
	}
}

func TestFigure4ResultCountsAgreeAcrossMethods(t *testing.T) {
	r := tinyRunner()
	rows := r.Figure4()
	// All methods answer the same queries: per (dataset, param) the
	// result counts must agree exactly.
	type key struct{ ds, param string }
	counts := map[key]float64{}
	for _, row := range rows {
		k := key{row.Dataset, row.Param}
		if prev, ok := counts[k]; ok {
			if prev != row.AvgResults {
				t.Fatalf("%v: %s reports %v results, earlier method reported %v",
					k, row.Method, row.AvgResults, prev)
			}
		} else {
			counts[k] = row.AvgResults
		}
	}
}

func TestFigure5Coverage(t *testing.T) {
	r := tinyRunner()
	rows := r.Figure5()
	if len(rows) != 2*4*len(LengthGrid) {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, row := range rows {
		if !strings.HasPrefix(row.Param, "l=") {
			t.Fatalf("param %q", row.Param)
		}
	}
}

func TestFigure6ExcludesKV(t *testing.T) {
	r := tinyRunner()
	rows := r.Figure6()
	if len(rows) != 2*2*5 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, row := range rows {
		if row.Method == "KV-Index" || row.Method == "Sweepline" {
			t.Fatalf("unexpected method %s in Figure 6", row.Method)
		}
	}
}

func TestFigure7RawGridRescaled(t *testing.T) {
	r := tinyRunner()
	rows := r.Figure7()
	if len(rows) != 2*4*5 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Raw thresholds are σ-scaled, so they must differ from the
	// normalized grid.
	for _, row := range rows {
		if row.Param == "eps=0.5" && row.Dataset == "Insect" {
			t.Fatal("raw grid was not rescaled")
		}
	}
}

func TestFigure8Coverage(t *testing.T) {
	r := tinyRunner()
	rows := r.Figure8()
	if len(rows) != 2*3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, row := range rows {
		if row.MemBytes <= 0 {
			t.Fatalf("%s %s: no memory recorded", row.Dataset, row.Method)
		}
		if row.BuildMs < 0 {
			t.Fatal("negative build time")
		}
	}
}

func TestFigureIntro(t *testing.T) {
	r := tinyRunner()
	rows := r.FigureIntro()
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	var cheb, euc float64
	for _, row := range rows {
		switch row.Method {
		case "Chebyshev":
			cheb = row.AvgResults
		case "Euclidean":
			euc = row.AvgResults
		}
	}
	if euc < cheb {
		t.Fatalf("Euclidean set (%v) must be a superset of Chebyshev (%v)", euc, cheb)
	}
}

func TestEpsGridFor(t *testing.T) {
	d := Insect(1, 0)
	d.Data = d.Data[:5000]
	norm := epsGridFor(&d, series.NormGlobal)
	if len(norm) != 5 || norm[0] != 0.5 {
		t.Fatalf("norm grid = %v", norm)
	}
	raw := epsGridFor(&d, series.NormNone)
	if len(raw) != 5 || raw[0] == norm[0] {
		t.Fatalf("raw grid must be σ-scaled: %v", raw)
	}
	if defaultEpsFor(&d, series.NormGlobal) != d.DefaultEpsNorm {
		t.Fatal("default norm eps")
	}
	if defaultEpsFor(&d, series.NormNone) == d.DefaultEpsNorm {
		t.Fatal("default raw eps must be σ-scaled")
	}
}

func TestScaledLen(t *testing.T) {
	if scaledLen(1000000, 0) != 1000000 || scaledLen(1000000, 1) != 1000000 || scaledLen(1000000, 2) != 1000000 {
		t.Fatal("degenerate scales must give full length")
	}
	if scaledLen(1000000, 0.5) != 500000 {
		t.Fatal("scaling broken")
	}
	if scaledLen(100000, 0.000001) != 1000 {
		t.Fatal("floor at 1000 points")
	}
}

func TestPrintTableAndCSV(t *testing.T) {
	r := tinyRunner()
	rows := append(r.Figure8(), r.FigureIntro()...)
	var buf bytes.Buffer
	PrintTable(&buf, rows)
	out := buf.String()
	for _, want := range []string{"Figure 8", "TS-Index", "memory", "Chebyshev"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	PrintTable(&buf, nil)
	if !strings.Contains(buf.String(), "no rows") {
		t.Fatal("empty table should say so")
	}
	buf.Reset()
	PrintCSV(&buf, rows)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(rows)+1 {
		t.Fatalf("CSV has %d lines for %d rows", len(lines), len(rows))
	}
	if !strings.HasPrefix(lines[0], "figure,dataset,method") {
		t.Fatal("CSV header missing")
	}
}

func TestCSVEscape(t *testing.T) {
	if csvEscape("plain") != "plain" {
		t.Fatal("plain strings unchanged")
	}
	if csvEscape(`a,"b"`) != `"a,""b"""` {
		t.Fatalf("got %q", csvEscape(`a,"b"`))
	}
}

// TestSkewedBoundariesAlwaysValid: the helper must return a partition
// shard.Build accepts for any plausible inputs, including tiny counts
// and extreme fractions.
func TestSkewedBoundariesAlwaysValid(t *testing.T) {
	for _, tc := range []struct {
		count, shards int
		frac          float64
	}{
		{20, 4, 0.9}, {1000, 4, 0.9}, {10, 4, 0.99}, {100, 2, 0.5},
		{5, 4, 0.9}, {100, 1, 0.9}, {100, 8, 1.0},
	} {
		b := SkewedBoundaries(tc.count, tc.shards, tc.frac)
		if b[0] != 0 || b[len(b)-1] != tc.count {
			t.Fatalf("%+v: boundaries %v don't span [0, count]", tc, b)
		}
		for i := 1; i < len(b); i++ {
			if b[i] <= b[i-1] {
				t.Fatalf("%+v: boundaries %v not strictly increasing at %d", tc, b, i)
			}
		}
	}
}

// TestDiskSetupFailureIsAnError: when the disk store cannot be created
// the runner reports it through Err and the figure returns no rows; it
// never measures memory in the disk set-up's place.
func TestDiskSetupFailureIsAnError(t *testing.T) {
	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))
	r := tinyRunner()
	r.DiskVerify = true
	defer r.Close()
	if rows := r.Figure4(); len(rows) != 0 {
		t.Fatalf("a failed disk set-up reported %d rows", len(rows))
	}
	if r.Err() == nil {
		t.Fatal("a failed disk set-up reported no error")
	}
	if rows := r.Figure5(); len(rows) != 0 || r.Err() == nil {
		t.Fatalf("Figure 5 after a failed set-up: %d rows, err %v", len(rows), r.Err())
	}
}

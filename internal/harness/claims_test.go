package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// figureFile is the committed form of one `tsbench -json` run.
type figureFile struct {
	Figure, Host, Commit, Verify string
	Kernel                       string `json:"kernel_dispatch"`
	Scale                        float64
	Queries, Passes              int
	Rows                         []Row
}

// readFigures reads the committed BENCH_fig<f>.json files at the
// repository root.
func readFigures(t *testing.T, figures ...string) []figureFile {
	t.Helper()
	var out []figureFile
	for _, fig := range figures {
		raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_fig"+fig+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var f figureFile
		if err := json.Unmarshal(raw, &f); err != nil {
			t.Fatalf("BENCH_fig%s.json: %v", fig, err)
		}
		out = append(out, f)
	}
	return out
}

// TestFigureRelations holds the paper's time claims (Claims) to the
// committed figure files, BENCH_fig4.json … BENCH_fig8.json — no clock
// is involved. A claim holds when the winner's upper quartile is below
// the loser's lower quartile. One whose intervals overlap is a tie, and
// one whose order is the other way round a reversal: each is named
// below, and every name below must still be one, so a row that moves —
// one TS-Index row's times tripled, say — fails the test. Figure 8a's
// memory order (KV-Index < iSAX < TS-Index) is asserted as is: bytes
// need no quartiles.
//
// Each file must be the paper's setup (disk-resident, scale 0.1, 30
// queries) at DefaultPasses, and every row carry its median, quartiles
// and IQR.
func TestFigureRelations(t *testing.T) {
	// ties are the claims whose passes cannot tell the two rows apart.
	// All are on Insect, the shorter series: at its loose ε KV-Index
	// verifies only 1.2–1.3 × iSAX's candidates and its passes spread
	// 14–17 ms (a quarter to a third of its median); at its tightest ε
	// TS-Index verifies 1/13.6 of the windows the sweepline does, and in
	// Figure 7 its time ratio lands around 10.
	ties := map[string]bool{
		"Fig 4/Insect eps=1: iSAX < KV-Index":               true,
		"Fig 4/Insect eps=1.5: iSAX < KV-Index":             true,
		"Fig 7/Insect eps=1.299: 10 × TS-Index < Sweepline": true,
	}
	// reversals are the claims the rows contradict, each with why (and
	// a line in README's "The paper's figures"); none does.
	reversals := map[string]string{}

	var rows []Row
	for _, f := range readFigures(t, "4", "5", "6", "7", "8") {
		if f.Verify != "disk" || f.Scale != 0.1 || f.Queries != 30 || f.Passes != DefaultPasses ||
			f.Host == "" || f.Commit == "" || f.Kernel == "" {
			t.Errorf("BENCH_fig%s.json: verify %q, scale %v, %d queries, %d passes, host %q, commit %q, dispatch %q",
				f.Figure, f.Verify, f.Scale, f.Queries, f.Passes, f.Host, f.Commit, f.Kernel)
		}
		for _, r := range f.Rows {
			median, iqr := r.AvgQueryMs, r.QueryMsIQR
			if r.Figure == "8" {
				median, iqr = r.BuildMs, r.BuildMsIQR
			}
			if r.Figure != f.Figure || r.Passes != f.Passes || !(r.Q1Ms <= median && median <= r.Q3Ms) || iqr != r.Q3Ms-r.Q1Ms {
				t.Errorf("BENCH_fig%s.json: row %+v is not a median inside its quartiles over %d passes", f.Figure, r, f.Passes)
			}
		}
		rows = append(rows, f.Rows...)
	}

	perFigure := map[string]int{}
	seen := map[string]bool{}
	for _, c := range Claims(rows) {
		perFigure[c.Winner.Figure]++
		seen[c.Name] = true
		_, reversal := reversals[c.Name]
		switch c.Outcome() {
		case Holds:
			if ties[c.Name] || reversal {
				t.Errorf("%s: listed as a tie or a reversal, but it holds", c)
			}
		case Tie:
			if !ties[c.Name] {
				t.Errorf("%s: a tie not listed in ties", c)
			}
		case Reversed:
			if !reversal {
				t.Errorf("%s: a reversal not listed in reversals", c)
			}
		}
	}
	for _, fig := range []string{"4", "5", "6", "7", "8"} {
		if perFigure[fig] == 0 {
			t.Errorf("Figure %s: no claim tested", fig)
		}
	}
	for name := range ties {
		if !seen[name] {
			t.Errorf("ties names %q, which is no claim", name)
		}
	}
	for name := range reversals {
		if !seen[name] {
			t.Errorf("reversals names %q, which is no claim", name)
		}
	}

	mem := map[string]int{}
	for _, r := range rows {
		if r.Figure == "8" {
			mem[r.Dataset+"/"+r.Method] = r.MemBytes
		}
	}
	for _, ds := range []string{"Insect", "EEG"} {
		kv, is, ts := mem[ds+"/KV-Index"], mem[ds+"/iSAX"], mem[ds+"/TS-Index"]
		if !(0 < kv && kv < is && is < ts) {
			t.Errorf("Figure 8a/%s: memory KV-Index %d, iSAX %d, TS-Index %d bytes, want that order", ds, kv, is, ts)
		}
	}
}

// The three TestShapeReport tests hold Claims — the successor of the
// old free-text shape report — to hand-made rows.

// TestShapeReport pins the interval rule: the winner's interval, scaled
// by the factor, wholly below the loser's holds, wholly above is
// reversed, and any overlap, touching ends included, is a tie. Rows that
// satisfy every claim draw no reversal, and flipping one order is caught.
func TestShapeReport(t *testing.T) {
	row := func(q1, q3 float64) Row { return Row{Q1Ms: q1, Q3Ms: q3} }
	for _, c := range []struct {
		w, l   Row
		factor float64
		want   Outcome
	}{
		{row(1, 2), row(3, 4), 1, Holds},
		{row(3, 4), row(1, 2), 1, Reversed},
		{row(1, 3), row(2, 4), 1, Tie},
		{row(1, 2), row(2, 4), 1, Tie},
		{row(1, 2), row(30, 40), 10, Holds},
		{row(1, 2), row(15, 40), 10, Tie},
		{row(1, 2), row(5, 8), 10, Reversed},
	} {
		if got := (Claim{Winner: c.w, Loser: c.l, Factor: c.factor}).Outcome(); got != c.want {
			t.Errorf("%v×[%v, %v] vs [%v, %v]: %s, want %s", c.factor, c.w.Q1Ms, c.w.Q3Ms, c.l.Q1Ms, c.l.Q3Ms, got, c.want)
		}
	}
	rows := []Row{
		{Figure: "4", Dataset: "EEG", Method: "TS-Index", Param: "eps=1", Q1Ms: 1, Q3Ms: 1.5},
		{Figure: "4", Dataset: "EEG", Method: "iSAX", Param: "eps=1", Q1Ms: 3, Q3Ms: 4},
		{Figure: "4", Dataset: "EEG", Method: "KV-Index", Param: "eps=1", Q1Ms: 20, Q3Ms: 25},
		{Figure: "4", Dataset: "EEG", Method: "Sweepline", Param: "eps=1", Q1Ms: 50, Q3Ms: 60},
	}
	outcomes := func() map[Outcome]int {
		n := map[Outcome]int{}
		for _, c := range Claims(rows) {
			n[c.Outcome()]++
		}
		return n
	}
	if got := outcomes(); got[Holds] != 5 || got[Tie]+got[Reversed] != 0 {
		t.Fatalf("rows that satisfy every claim: %v, want 5 holds", got)
	}
	rows[0].Q1Ms, rows[0].Q3Ms = 10, 12 // TS-Index now slower than iSAX
	if got := outcomes(); got[Reversed] == 0 {
		t.Fatalf("TS-Index slower than iSAX drew no reversal: %v", got)
	}
}

// TestShapeReportKVCheckOnlyFig4 pins which claims Claims draws from
// which rows: iSAX over KV-Index in Figure 4 only (on raw data the paper
// has the two close), nothing outside Figures 4–8.
func TestShapeReportKVCheckOnlyFig4(t *testing.T) {
	rows := []Row{
		{Figure: "4", Dataset: "D", Method: "TS-Index", Param: "eps=1"},
		{Figure: "4", Dataset: "D", Method: "iSAX", Param: "eps=1"},
		{Figure: "4", Dataset: "D", Method: "KV-Index", Param: "eps=1"},
		{Figure: "4", Dataset: "D", Method: "Sweepline", Param: "eps=1"},
		{Figure: "6", Dataset: "D", Method: "TS-Index", Param: "eps=1"},
		{Figure: "6", Dataset: "D", Method: "iSAX", Param: "eps=1"},
		{Figure: "7", Dataset: "D", Method: "iSAX", Param: "eps=2"},
		{Figure: "7", Dataset: "D", Method: "KV-Index", Param: "eps=2"},
		{Figure: "8", Dataset: "D", Method: "KV-Index", Param: "defaults"},
		{Figure: "8", Dataset: "D", Method: "TS-Index", Param: "defaults"},
		{Figure: "intro", Dataset: "D", Method: "TS-Index", Param: "eps=1"},
	}
	var names []string
	for _, c := range Claims(rows) {
		names = append(names, c.Name)
	}
	want := []string{
		"Fig 4/D eps=1: TS-Index < Sweepline", "Fig 4/D eps=1: TS-Index < KV-Index", "Fig 4/D eps=1: TS-Index < iSAX",
		"Fig 4/D eps=1: 10 × TS-Index < Sweepline", "Fig 4/D eps=1: iSAX < KV-Index",
		"Fig 6/D eps=1: TS-Index < iSAX", "Fig 8/D defaults: KV-Index < TS-Index",
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("Claims named\n %q\nwant\n %q", names, want)
	}
}

// TestShapeReportEmptyAndPartial: no rows draw no claim, and neither
// does a row with no rival.
func TestShapeReportEmptyAndPartial(t *testing.T) {
	if got := Claims(nil); len(got) != 0 {
		t.Errorf("Claims(nil) = %v", got)
	}
	rows := []Row{
		{Figure: "4", Dataset: "Y", Method: "TS-Index", Param: "eps=1"},
		{Figure: "5", Dataset: "Y", Method: "TS-Index", Param: "l=50"},
	}
	if got := Claims(rows); len(got) != 0 {
		t.Errorf("TS-Index rows alone drew claims: %v", got)
	}
}

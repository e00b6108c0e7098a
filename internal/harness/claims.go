package harness

import "fmt"

// A Claim is one of the paper's time claims about one pair of rows: the
// Winner takes less of the time its figure measures than the Loser —
// Factor times less, for "an order of magnitude".
type Claim struct {
	Name          string
	Winner, Loser Row
	Factor        float64
}

// Outcome is how a claim fares on the measured rows.
type Outcome string

const (
	Holds    Outcome = "holds"
	Tie      Outcome = "tie"
	Reversed Outcome = "REVERSED"
)

// Outcome compares the two rows' interquartile intervals (Q1Ms, Q3Ms),
// the winner's scaled by Factor: the claim holds when the winner's
// upper quartile is below the loser's lower quartile, is reversed when
// the loser's upper quartile is below the winner's lower quartile, and
// is a tie when the intervals overlap — the passes cannot tell the two
// rows apart.
func (c Claim) Outcome() Outcome {
	switch {
	case c.Factor*c.Winner.Q3Ms < c.Loser.Q1Ms:
		return Holds
	case c.Loser.Q3Ms < c.Factor*c.Winner.Q1Ms:
		return Reversed
	}
	return Tie
}

func (c Claim) String() string {
	return fmt.Sprintf("%-8s  %s — [%.3f, %.3f] vs [%.3f, %.3f] ms", c.Outcome(), c.Name,
		c.Factor*c.Winner.Q1Ms, c.Factor*c.Winner.Q3Ms, c.Loser.Q1Ms, c.Loser.Q3Ms)
}

// Claims lists the paper's time claims (§6.2) that rows can test, in
// row order:
//
//   - Figures 4–7: TS-Index answers faster than every other method at
//     every parameter ("TS-Index outperforms the rest in every
//     setting");
//   - Figures 4 and 7, at each dataset's tightest ε (the grids run
//     tightest first): TS-Index at least 10 times faster than the
//     sweepline ("at least an order of magnitude more efficient");
//   - Figure 4: iSAX faster than KV-Index at every ε (KV-Index
//     "performs poorly compared to other indices" — on raw data, Figure
//     7, the paper has the two close);
//   - Figure 8b: KV-Index builds faster than iSAX and TS-Index.
//
// A claim is listed only when both of its rows are present.
func Claims(rows []Row) []Claim {
	type cell struct{ fig, dataset, param, method string }
	at := map[cell]Row{}
	for _, r := range rows {
		at[cell{r.Figure, r.Dataset, r.Param, r.Method}] = r
	}
	var out []Claim
	claim := func(w Row, loser MethodID, factor float64) {
		l, ok := at[cell{w.Figure, w.Dataset, w.Param, loser.String()}]
		if !ok {
			return
		}
		name := fmt.Sprintf("Fig %s/%s %s: %s < %s", w.Figure, w.Dataset, w.Param, w.Method, l.Method)
		if factor != 1 {
			name = fmt.Sprintf("Fig %s/%s %s: %g × %s < %s", w.Figure, w.Dataset, w.Param, factor, w.Method, l.Method)
		}
		out = append(out, Claim{Name: name, Winner: w, Loser: l, Factor: factor})
	}
	tightest := map[[2]string]bool{}
	for _, r := range rows {
		switch {
		case r.Method == TSIndex.String() && (r.Figure == "4" || r.Figure == "5" || r.Figure == "6" || r.Figure == "7"):
			for _, m := range AllMethods {
				if m != TSIndex {
					claim(r, m, 1)
				}
			}
			if k := [2]string{r.Figure, r.Dataset}; (r.Figure == "4" || r.Figure == "7") && !tightest[k] {
				tightest[k] = true
				claim(r, Sweepline, 10)
			}
		case r.Method == ISAX.String() && r.Figure == "4":
			claim(r, KVIndex, 1)
		case r.Method == KVIndex.String() && r.Figure == "8":
			claim(r, ISAX, 1)
			claim(r, TSIndex, 1)
		}
	}
	return out
}

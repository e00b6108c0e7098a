package core

import (
	"testing"

	"twinsearch/internal/mbts"
	"twinsearch/internal/series"
)

func TestPickSideTieBreaks(t *testing.T) {
	wide, _ := mbts.Enclose([]float64{0, 0}, []float64{4, 4})
	tight, _ := mbts.Enclose([]float64{0, 0}, []float64{1, 1})

	// Different increases: the smaller increase wins regardless of the
	// rest.
	if !pickSide(-1, wide, tight, 9, 1) {
		t.Fatal("smaller width increase must win")
	}
	if pickSide(1, tight, wide, 1, 9) {
		t.Fatal("smaller width increase must win (other side)")
	}
	// Equal increases: the tighter MBTS wins.
	if pickSide(0, wide, tight, 1, 9) {
		t.Fatal("equal increase: tighter band must win")
	}
	if !pickSide(0, tight, wide, 9, 1) {
		t.Fatal("equal increase: tighter band must win (other side)")
	}
	// Equal increases and widths: fewer entries wins; full tie goes to A.
	if !pickSide(0, tight, tight, 2, 5) {
		t.Fatal("fewer entries must win")
	}
	if pickSide(0, tight, tight, 5, 2) {
		t.Fatal("fewer entries must win (other side)")
	}
	if !pickSide(0, tight, tight, 3, 3) {
		t.Fatal("full tie must go to side A")
	}
}

func TestSplitPreservesEntriesExactly(t *testing.T) {
	// Build with pathological duplicate windows: a constant series makes
	// every window identical, exercising seed selection and forced
	// assignment under total ties.
	ts := make([]float64, 200)
	for i := range ts {
		ts[i] = 1
	}
	// frozenOver requires every window held exactly once.
	f, _ := frozenOver(t, ts, series.NormNone, Config{L: 20, MinCap: 2, MaxCap: 4})
	if f.Len() != 181 {
		t.Fatalf("Len = %d", f.Len())
	}
}

package oracle

import (
	"slices"
	"testing"

	"twinsearch/internal/series"
)

// TestHandWorked checks the reference itself on a series small enough
// to do by eye: windows of length 2 over 0 1 2 1 0 5, query (1, 2).
func TestHandWorked(t *testing.T) {
	ext := series.NewExtractor([]float64{0, 1, 2, 1, 0, 5}, series.NormNone)
	q := []float64{1, 2}
	// Distances by start: 0:(0,1)→1  1:(1,2)→0  2:(2,1)→1  3:(1,0)→2  4:(0,5)→3.
	if got, want := Range(ext, q, 1), []series.Match{{Start: 0, Dist: -1}, {Start: 1, Dist: -1}, {Start: 2, Dist: -1}}; !slices.Equal(got, want) {
		t.Fatalf("Range: %v, want %v", got, want)
	}
	if got, want := TopK(ext, q, 3), []series.Match{{Start: 1, Dist: 0}, {Start: 0, Dist: 1}, {Start: 2, Dist: 1}}; !slices.Equal(got, want) {
		t.Fatalf("TopK: %v, want %v", got, want)
	}
	if got := TopK(ext, q, 9); len(got) != 5 || got[4] != (series.Match{Start: 4, Dist: 3}) {
		t.Fatalf("TopK past the window count: %v", got)
	}
	// An index over windows of length 4 holds starts 0..2; the query
	// (1) at eps 0 matches starts 1 and 3 — one indexed, one tail.
	indexed, tail := Prefix(ext, 4, []float64{1}, 0)
	if !slices.Equal(indexed, []series.Match{{Start: 1, Dist: -1}}) || !slices.Equal(tail, []series.Match{{Start: 3, Dist: -1}}) {
		t.Fatalf("Prefix: indexed %v, tail %v", indexed, tail)
	}
}

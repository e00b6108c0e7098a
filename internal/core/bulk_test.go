package core

import (
	"slices"
	"testing"

	"twinsearch/internal/datasets"
	"twinsearch/internal/oracle"
	"twinsearch/internal/series"
)

func TestBulkInvariantsAndEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		ts   []float64
		mode series.NormMode
		eps  float64
	}{
		{"walk-global", datasets.RandomWalk(2, 4000), series.NormGlobal, 0.3},
		{"insect-raw", datasets.InsectN(5, 4000), series.NormNone, 2},
		{"eeg-persub", datasets.EEGN(6, 4000), series.NormPerSubsequence, 0.5},
	} {
		ext := series.NewExtractor(tc.ts, tc.mode)
		ix, err := BuildBulk(ext, Config{L: 80})
		if err != nil {
			t.Fatalf("%s: BuildBulk: %v", tc.name, err)
		}
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("%s: invariants: %v", tc.name, err)
		}
		q := ext.ExtractCopy(1000, 80)
		got := ix.Freeze().Search(q, tc.eps)
		want := oracle.Range(ext, q, tc.eps)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: %d matches, want %d", tc.name, len(got), len(want))
		}
	}
}

func TestBulkSmallInputs(t *testing.T) {
	// Fewer windows than MinCap: a single root leaf.
	ts := datasets.RandomWalk(3, 25)
	ext := series.NewExtractor(ts, series.NormGlobal)
	ix, err := BuildBulk(ext, Config{L: 20})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Height() != 1 || ix.Len() != 6 {
		t.Fatalf("height=%d len=%d", ix.Height(), ix.Len())
	}
	if err := ix.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkRejectsBadInput(t *testing.T) {
	ext := series.NewExtractor(datasets.RandomWalk(1, 10), series.NormGlobal)
	if _, err := BuildBulk(ext, Config{L: 50}); err == nil {
		t.Fatal("L > n must fail")
	}
}

func TestBulkHighLeafFill(t *testing.T) {
	// Bulk loading packs leaves full; insertion averages ~65% fill.
	ts := datasets.RandomWalk(4, 10000)
	ext := series.NewExtractor(ts, series.NormGlobal)
	bulk, err := BuildBulk(ext, Config{L: 100})
	if err != nil {
		t.Fatal(err)
	}
	ins, err := Build(ext, Config{L: 100})
	if err != nil {
		t.Fatal(err)
	}
	if bulk.LeafFill() <= ins.LeafFill() {
		t.Fatalf("bulk fill %v should exceed insert fill %v", bulk.LeafFill(), ins.LeafFill())
	}
}

func TestPackGroups(t *testing.T) {
	for _, c := range []struct{ count, max int }{
		{1, 30}, {30, 30}, {31, 30}, {100, 30}, {901, 30}, {7, 4},
	} {
		groups := packGroups(c.count, c.max)
		sum := 0
		for _, g := range groups {
			sum += g
			if g > c.max || g <= 0 {
				t.Fatalf("count=%d max=%d: bad group %d", c.count, c.max, g)
			}
			if len(groups) > 1 && g < (c.max+1)/2 {
				t.Fatalf("count=%d max=%d: group %d below half-full", c.count, c.max, g)
			}
		}
		if sum != c.count {
			t.Fatalf("count=%d max=%d: groups sum to %d", c.count, c.max, sum)
		}
	}
}

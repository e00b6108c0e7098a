package sweepline

import (
	"math"
	"slices"
	"testing"

	"twinsearch/internal/datasets"
	"twinsearch/internal/oracle"
	"twinsearch/internal/series"
)

// TestSearchMatchesOracle validates the sweepline itself against the
// independent, unoptimized reference (no early abandoning, no
// reordering).
func TestSearchMatchesOracle(t *testing.T) {
	ts := datasets.Sine(3, 3000, 120, 2, 0.15)
	for _, mode := range []series.NormMode{series.NormNone, series.NormGlobal, series.NormPerSubsequence} {
		ext := series.NewExtractor(ts, mode)
		q := ext.TransformQuery(ts[500:580])
		for _, eps := range []float64{0.05, 0.2, 0.5, 1.0} {
			got, stats := New(ext).SearchStats(q, eps)
			if want := oracle.Range(ext, q, eps); !slices.Equal(series.MatchStarts(got), series.MatchStarts(want)) {
				t.Fatalf("mode=%v eps=%v: %d matches, want %d", mode, eps, len(got), len(want))
			}
			if stats.Candidates != series.NumSubsequences(ext.Len(), len(q)) {
				t.Fatalf("sweepline must verify every window, got %d", stats.Candidates)
			}
			if stats.Results != len(got) {
				t.Fatalf("stats.Results = %d, want %d", stats.Results, len(got))
			}
		}
	}
}

func TestSelfMatch(t *testing.T) {
	ts := datasets.RandomWalk(9, 2000)
	ext := series.NewExtractor(ts, series.NormGlobal)
	q := ext.ExtractCopy(700, 100)
	ms := New(ext).Search(q, 0)
	found := false
	for _, m := range ms {
		if m.Start == 700 {
			found = true
		}
	}
	if !found {
		t.Fatal("query's own window must match at eps=0")
	}
}

func TestPeriodicSeriesFindsAllPeriods(t *testing.T) {
	// Noise-free sine: every window one period apart is an exact twin.
	ts := datasets.Sine(1, 2000, 100, 1, 0)
	ext := series.NewExtractor(ts, series.NormNone)
	q := ext.ExtractCopy(300, 100)
	ms := New(ext).Search(q, 1e-9)
	if len(ms) != len(ts)/100-1+1-1 && len(ms) < 15 {
		t.Fatalf("expected ~19 periodic matches, got %d", len(ms))
	}
	for _, m := range ms {
		if (m.Start-300)%100 != 0 {
			t.Fatalf("unexpected match at %d", m.Start)
		}
	}
}

func TestDegenerateInputs(t *testing.T) {
	ext := series.NewExtractor([]float64{1, 2, 3}, series.NormNone)
	if ms := New(ext).Search(nil, 1); ms != nil {
		t.Fatal("empty query should return nil")
	}
	if ms := New(ext).Search([]float64{1, 2, 3, 4}, 1); ms != nil {
		t.Fatal("query longer than series should return nil")
	}
}

func TestEuclideanSupersetProperty(t *testing.T) {
	// Paper §1/§3.1: Euclidean search at ε√l returns a superset of the
	// Chebyshev twins at ε.
	ts := datasets.EEGN(5, 30000)
	ext := series.NewExtractor(ts, series.NormGlobal)
	q := ext.ExtractCopy(1234, 100)
	eps := 0.3
	sw := New(ext)
	twins := sw.Search(q, eps)
	euclid := sw.SearchEuclidean(q, series.EuclideanThresholdFor(eps, len(q)))
	starts := map[int]bool{}
	for _, m := range euclid {
		starts[m.Start] = true
	}
	for _, m := range twins {
		if !starts[m.Start] {
			t.Fatalf("twin at %d missing from Euclidean superset", m.Start)
		}
	}
	if len(euclid) < len(twins) {
		t.Fatal("superset smaller than subset")
	}
}

func TestEuclideanDegenerate(t *testing.T) {
	ext := series.NewExtractor([]float64{1, 2}, series.NormNone)
	if ms := New(ext).SearchEuclidean([]float64{1, 2, 3}, 1); ms != nil {
		t.Fatal("long query should return nil")
	}
}

func TestRawModeThresholds(t *testing.T) {
	// Raw values: matches depend on absolute scale.
	ts := []float64{0, 10, 0, 10, 0, 10.4, 0.5, 10, 0}
	ext := series.NewExtractor(ts, series.NormNone)
	q := []float64{0, 10}
	ms := New(ext).Search(q, 0.5)
	wantStarts := map[int]bool{0: true, 2: true, 4: true, 6: true}
	if len(ms) != len(wantStarts) {
		t.Fatalf("got %d matches: %v", len(ms), ms)
	}
	for _, m := range ms {
		if !wantStarts[m.Start] {
			t.Fatalf("unexpected match at %d", m.Start)
		}
	}
	if math.Abs(ts[5]-10.4) > 1e-12 {
		t.Fatal("fixture changed")
	}
}

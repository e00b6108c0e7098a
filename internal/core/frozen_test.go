package core

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"twinsearch/internal/datasets"
	"twinsearch/internal/oracle"
	"twinsearch/internal/series"
)

var frozenModes = []struct {
	name string
	mode series.NormMode
}{
	{"raw", series.NormNone},
	{"global", series.NormGlobal},
	{"persub", series.NormPerSubsequence},
}

// TestFrozenMatchesOracle drives all five search paths over the frozen
// compilation of an insertion-built tree and requires the oracle's
// answers. (The traversal statistics — that the arena is walked the
// same way, not just to the same answer — are pinned by
// TestTraversalGoldenStats, whose note explains the row names.)
func TestFrozenMatchesOracle(t *testing.T) {
	ts := datasets.RandomWalk(3, 2400)
	const l = 48
	for _, m := range frozenModes {
		t.Run(m.name+"/bulk=false", func(t *testing.T) {
			f, ext := frozenOver(t, ts, m.mode, Config{L: l})
			queries := [][]float64{
				ext.ExtractCopy(37, l),
				ext.ExtractCopy(1200, l),
				ext.ExtractCopy(f.Len()-1, l),
			}
			for qi, q := range queries {
				for _, eps := range []float64{0, 0.1, 0.5, 2.0} {
					want := oracle.Range(ext, q, eps)
					got, st := f.SearchStats(q, eps)
					if !slices.Equal(want, got) {
						t.Fatalf("q%d eps=%g: Search mismatch: %d vs %d matches", qi, eps, len(want), len(got))
					}
					if st.Results != len(got) || st.Abandons != st.Candidates-st.Results {
						t.Fatalf("q%d eps=%g: counters do not balance: %+v", qi, eps, st)
					}
				}
				for _, k := range []int{1, 7, 50} {
					want := oracle.TopK(ext, q, k)
					got := f.SearchTopK(q, k)
					if !slices.Equal(want, got) {
						t.Fatalf("q%d k=%d: SearchTopK mismatch: %v vs %v", qi, k, want, got)
					}
				}
				if m.mode != series.NormPerSubsequence {
					short := q[:l/2]
					got, err := f.SearchPrefix(short, 0.4)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(oracle.Range(ext, short, 0.4), got) {
						t.Fatalf("q%d: SearchPrefix mismatch", qi)
					}
				}
			}
		})
	}
}

// TestFrozenPersistRoundTrip writes the arena and loads it back.
func TestFrozenPersistRoundTrip(t *testing.T) {
	ts := datasets.RandomWalk(7, 1800)
	const l = 40
	for _, m := range frozenModes {
		t.Run(m.name, func(t *testing.T) {
			f, ext := frozenOver(t, ts, m.mode, Config{L: l})
			var buf bytes.Buffer
			n, err := f.WriteTo(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(buf.Len()) {
				t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
			}
			got, err := loaders["heap"](t, buf.Bytes(), ext)
			if err != nil {
				t.Fatal(err)
			}
			q := ext.ExtractCopy(64, l)
			if !matchesEqual(f.Search(q, 0.5), got.Search(q, 0.5)) {
				t.Fatal("reloaded arena answers differently")
			}
			if got.Len() != f.Len() || got.Height() != f.Height() || got.NodeCount() != f.NodeCount() {
				t.Fatal("reloaded arena shape differs")
			}
		})
	}
}

// TestLoadFrozenRejects covers a heap open's validation paths: wrong
// extractor, wrong series, truncated and corrupted streams.
func TestLoadFrozenRejects(t *testing.T) {
	ts := datasets.RandomWalk(9, 900)
	const l = 30
	ext := series.NewExtractor(ts, series.NormGlobal)
	f, err := Build(ext, Config{L: l})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()

	load := loaders["heap"]
	if _, err := load(t, stream, series.NewExtractor(ts, series.NormNone)); err == nil {
		t.Fatal("accepted a mode mismatch")
	}
	other := series.NewExtractor(datasets.RandomWalk(10, 900), series.NormGlobal)
	if _, err := load(t, stream, other); err == nil {
		t.Fatal("accepted a different series of the same length")
	}
	if _, err := load(t, stream[:60], ext); err == nil {
		t.Fatal("accepted a truncated stream")
	}
	// Corrupt the structure arrays just past the 47-byte header: a
	// mangled child index breaks prefix-contiguity, which validation
	// must catch. (A flipped bound byte may merely loosen an MBTS,
	// which is still a consistent index — the fuzz target covers that
	// spectrum.)
	corrupt := append([]byte(nil), stream...)
	corrupt[50] ^= 0xFF
	if _, err := load(t, corrupt, ext); err == nil {
		t.Fatal("accepted a stream with corrupted structure arrays")
	}
}

// TestFrozenEmpty exercises the zero-entry arena.
func TestFrozenEmpty(t *testing.T) {
	ts := datasets.RandomWalk(2, 200)
	ext := series.NewExtractor(ts, series.NormGlobal)
	f := grow(t, ext, Config{L: 20}, 0, 0).freeze()
	checkSealed(t, f, 0, 0)
	q := make([]float64, 20)
	if got := f.Search(q, math.Inf(1)); len(got) != 0 {
		t.Fatalf("empty arena returned %d matches", len(got))
	}
	if got := f.SearchTopK(q, 3); len(got) != 0 {
		t.Fatalf("empty arena returned %d top-k results", len(got))
	}
}

func matchesEqual(a, b []series.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

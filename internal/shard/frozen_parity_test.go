package shard

import (
	"bytes"
	"fmt"
	"testing"

	"twinsearch/internal/core"
	"twinsearch/internal/datasets"
	"twinsearch/internal/oracle"
	"twinsearch/internal/series"
)

// TestFrozenShardParityAllPaths is the differential matrix of the
// fan-out: every search path × normalization mode × shard count must
// return the oracle's answer over the same series.
func TestFrozenShardParityAllPaths(t *testing.T) {
	ts := datasets.RandomWalk(21, 2600)
	const l = 44
	modes := []struct {
		name string
		mode series.NormMode
	}{
		{"raw", series.NormNone},
		{"global", series.NormGlobal},
		{"persub", series.NormPerSubsequence},
	}
	for _, m := range modes {
		ext := series.NewExtractor(ts, m.mode)
		queries := [][]float64{ext.ExtractCopy(10, l), ext.ExtractCopy(1900, l)}
		for _, p := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d/mean=false", m.name, p), func(t *testing.T) {
				sh, err := Build(ext, Config{
					Config: core.Config{L: l}, Shards: p,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := sh.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				for qi, q := range queries {
					for _, eps := range []float64{0.05, 0.4, 1.5} {
						want := oracle.Range(ext, q, eps)
						got, st := sh.SearchStats(q, eps)
						if !sameMatches(want, got) {
							t.Fatalf("q%d eps=%g: Search mismatch (%d vs %d)", qi, eps, len(want), len(got))
						}
						if st.Results != len(got) {
							t.Fatalf("q%d eps=%g: Stats.Results %d for %d matches", qi, eps, st.Results, len(got))
						}
						// An approximate search granted more leaves
						// than exist must equal the exact answer.
						app, _ := sh.SearchApprox(q, eps, 1<<30)
						if !sameMatches(want, app) {
							t.Fatalf("q%d eps=%g: unbounded SearchApprox mismatch", qi, eps)
						}
					}
					for _, k := range []int{1, 9, 64} {
						if want, got := oracle.TopK(ext, q, k), sh.SearchTopK(q, k); !sameMatches(want, got) {
							t.Fatalf("q%d k=%d: SearchTopK mismatch", qi, k)
						}
					}
					if m.mode != series.NormPerSubsequence {
						indexed, tail := oracle.Prefix(ext, l, q[:l/2], 0.3)
						got, err := sh.SearchPrefix(q[:l/2], 0.3)
						if err != nil {
							t.Fatal(err)
						}
						if !sameMatches(append(indexed, tail...), got) {
							t.Fatalf("q%d: SearchPrefix mismatch", qi)
						}
						tree, err := sh.SearchPrefixTreeCtx(nil, q[:l/2], 0.3)
						if err != nil || !sameMatches(indexed, tree) {
							t.Fatalf("q%d: SearchPrefixTree: %d matches (%v), oracle %d", qi, len(tree), err, len(indexed))
						}
					}
				}
			})
		}
	}
}

// TestShardPersistRoundTripBothPartitions saves and reloads an index
// through the frozen stream after Insert left it dirty (WriteTo must
// re-freeze first). The names date from when a second, mean-sorted
// partition scheme ran through the same body.
func TestShardPersistRoundTripBothPartitions(t *testing.T) {
	ts := datasets.RandomWalk(41, 1400)
	const l = 36
	t.Run("mean=false", func(t *testing.T) {
		ext := series.NewExtractor(append([]float64(nil), ts...), series.NormNone)
		sh, err := Build(ext, Config{Config: core.Config{L: l}, Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		// Dirty a shard so WriteTo exercises the refreeze path: grow
		// the series and insert the newly completed windows.
		oldCount := series.NumSubsequences(ext.Len(), l)
		ext.Append(1.5, -0.25, 0.75)
		for p := oldCount; p < series.NumSubsequences(ext.Len(), l); p++ {
			sh.Insert(p)
		}

		var buf bytes.Buffer
		if _, err := sh.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Load(bytes.NewReader(buf.Bytes()), ext, nil)
		if err != nil {
			t.Fatal(err)
		}
		q := ext.ExtractCopy(777, l)
		if want, have := sh.Search(q, 0.5), got.Search(q, 0.5); !sameMatches(want, have) {
			t.Fatal("reloaded index answers differently")
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

func sameMatches(a, b []series.Match) bool {
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

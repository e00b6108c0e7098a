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
// fan-out: every search path × normalization mode × shard count ×
// partition scheme must return the oracle's answer over the same
// series.
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
			for _, byMean := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/shards=%d/mean=%v", m.name, p, byMean), func(t *testing.T) {
					sh, err := Build(ext, Config{
						Config: core.Config{L: l}, Shards: p, PartitionByMean: byMean,
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
							// than exist must equal the exact answer,
							// whatever the partition.
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
}

// TestMeanPartitionInsertRouting appends past the series end and checks
// mean-routed insertion keeps the partition coherent and the answers
// exact.
func TestMeanPartitionInsertRouting(t *testing.T) {
	ts := datasets.RandomWalk(33, 900)
	const l = 30
	grown := datasets.RandomWalk(33, 960) // same prefix generator, longer
	copy(grown, ts)

	ext := series.NewExtractor(append([]float64(nil), ts...), series.NormNone)
	sh, err := Build(ext, Config{Config: core.Config{L: l}, Shards: 3, PartitionByMean: true})
	if err != nil {
		t.Fatal(err)
	}
	ext.Append(grown[len(ts):]...)
	count := series.NumSubsequences(len(grown), l)
	for p := series.NumSubsequences(len(ts), l); p < count; p++ {
		sh.Insert(p)
	}
	if err := sh.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if sh.Len() != count {
		t.Fatalf("after inserts: %d windows indexed, want %d", sh.Len(), count)
	}
	refExt := series.NewExtractor(grown, series.NormNone)
	q := refExt.ExtractCopy(920, l)
	for _, eps := range []float64{0.1, 0.8} {
		if want, got := oracle.Range(refExt, q, eps), sh.Search(q, eps); !sameMatches(want, got) {
			t.Fatalf("eps=%g: post-insert search mismatch (%d vs %d)", eps, len(want), len(got))
		}
	}
}

// TestShardPersistRoundTripBothPartitions saves and reloads both
// partition schemes through the frozen stream, including an index
// left dirty by Insert (WriteTo must re-freeze first).
func TestShardPersistRoundTripBothPartitions(t *testing.T) {
	ts := datasets.RandomWalk(41, 1400)
	const l = 36
	for _, byMean := range []bool{false, true} {
		t.Run(fmt.Sprintf("mean=%v", byMean), func(t *testing.T) {
			ext := series.NewExtractor(append([]float64(nil), ts...), series.NormNone)
			sh, err := Build(ext, Config{Config: core.Config{L: l}, Shards: 3, PartitionByMean: byMean})
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
			if got.PartitionByMean() != byMean {
				t.Fatalf("partition scheme lost in round trip")
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

package shard

import (
	"fmt"
	"math"
	"testing"

	"twinsearch/internal/core"
	"twinsearch/internal/datasets"
	"twinsearch/internal/exec"
	"twinsearch/internal/oracle"
	"twinsearch/internal/series"
)

// TestFrozenShardParityAllPaths is the differential matrix of the
// fan-out: every search path × normalization mode × partition must
// return the oracle's answer over the same series. The partitions are
// contiguous runs of 1 to 7 shards — one shard, the single index,
// included — and a skewed one whose last shard holds ~90% of the
// windows, searched by executors of three widths: skew may move work
// between workers, never an answer.
func TestFrozenShardParityAllPaths(t *testing.T) {
	ts := datasets.RandomWalk(21, 2600)
	const l = 44
	count := series.NumSubsequences(len(ts), l)
	head := count / 10
	skew := []int{0, head / 3, 2 * head / 3, head, count}
	type partition struct {
		name string
		cfg  Config
	}
	var partitions []partition
	for _, p := range []int{1, 2, 3, 4, 7} {
		partitions = append(partitions, partition{fmt.Sprintf("shards=%d", p), Config{Shards: p}})
	}
	for _, w := range []int{1, 3, 8} {
		partitions = append(partitions, partition{fmt.Sprintf("skewed/workers=%d", w), Config{Boundaries: skew, Executor: exec.New(w)}})
	}
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
		// The last query sits deep inside the skewed partition's hot shard.
		queries := [][]float64{ext.ExtractCopy(10, l), ext.ExtractCopy(1900, l), ext.ExtractCopy(count-1, l)}
		for _, p := range partitions {
			t.Run(m.name+"/"+p.name, func(t *testing.T) {
				cfg := p.cfg
				cfg.Config = core.Config{L: l}
				sh, err := Build(ext, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := sh.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if want := max(cfg.Shards, len(cfg.Boundaries)-1); sh.NumShards() != want {
					t.Fatalf("built %d shards, want %d", sh.NumShards(), want)
				}
				for qi, q := range queries {
					for _, eps := range []float64{0, 0.05, 0.4, 1.5} {
						want := oracle.Range(ext, q, eps)
						got, st := sh.SearchStats(q, eps)
						if !sameMatches(want, got) {
							t.Fatalf("q%d eps=%g: Search mismatch (%d vs %d)", qi, eps, len(want), len(got))
						}
						if st.Results != len(got) {
							t.Fatalf("q%d eps=%g: Stats.Results %d for %d matches", qi, eps, st.Results, len(got))
						}
					}
					for _, k := range []int{1, 9, 64} {
						if want, got := oracle.TopK(ext, q, k), sh.SearchTopK(q, k); !sameMatches(want, got) {
							t.Fatalf("q%d k=%d: SearchTopK mismatch", qi, k)
						}
					}
				}
				// Shorter queries of several lengths from the series' end,
				// so the windows only the shorter length has hold twins.
				// Per-subsequence normalization refuses them before they
				// reach an index (the engine's checkQuery, a node's screen).
				if m.mode == series.NormPerSubsequence {
					return
				}
				for _, pl := range []int{8, 20, l / 2, l} {
					q := ext.ExtractCopy(ext.Len()-pl, pl)
					got, st := sh.SearchStats(q, 0.3)
					indexed, tail := oracle.Prefix(ext, l, q, 0.3)
					if !sameMatches(append(indexed, tail...), got) {
						t.Fatalf("prefix l=%d: %d matches, oracle %d", pl, len(got), len(indexed)+len(tail))
					}
					if st.Results != len(got) || st.Candidates < l-pl {
						t.Fatalf("prefix l=%d: counted %+v for %d matches and %d short-only windows", pl, st, len(got), l-pl)
					}
				}
			})
		}
	}
}

// sameMatches reports whether a and b hold the same matches in the same
// order, Dist compared bit for bit.
func sameMatches(a, b []series.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Start != b[i].Start || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			return false
		}
	}
	return true
}

package cluster_test

// Top-k conformance against the definition: every backing that answers
// a top-k query — frozen arena, sharded fan-out and the replicated
// cluster over the wire — must
// return exactly the first k windows of a brute-force scan sorted by
// (dist, start), on the inputs where early abandoning and tie handling
// are easiest to get wrong: all-tie series, exact duplicates straddling
// the k-th place, and k at and past the number of windows.

import (
	"context"
	"fmt"
	"testing"

	"twinsearch/internal/cluster"
	"twinsearch/internal/core"
	"twinsearch/internal/datasets"
	"twinsearch/internal/oracle"
	"twinsearch/internal/series"
	"twinsearch/internal/shard"
)

// plantedDuplicates copies the window at src over five other places, so
// a query drawn from src has six exact twins at distance 0 (under every
// norm mode — identical windows normalize identically) and any k in
// 2..5 cuts through the tie.
func plantedDuplicates(src int) []float64 {
	data := datasets.EEGN(23, 1600)
	for _, at := range []int{40, 170, 333, 901, 1500} {
		copy(data[at:at+testL], data[src:src+testL])
	}
	return data
}

func TestTopKConformance(t *testing.T) {
	const dupSrc = 250
	constant := make([]float64, 500)
	for i := range constant {
		constant[i] = 1.5
	}
	inputs := []struct {
		name string
		data []float64
	}{
		{"constant", constant},
		{"duplicates", plantedDuplicates(dupSrc)},
	}
	ctx := context.Background()
	for _, in := range inputs {
		for _, mode := range []series.NormMode{series.NormNone, series.NormGlobal, series.NormPerSubsequence} {
			t.Run(fmt.Sprintf("%s/norm=%v", in.name, mode), func(t *testing.T) {
				ext := series.NewExtractor(in.data, mode)
				windows := series.NumSubsequences(ext.Len(), testL)

				// Seven queries: the duplicated window
				// itself, other members, and off-series perturbations.
				var qs [][]float64
				for i, p := range []int{dupSrc, 0, 97, 333, windows - 1, 411, 12} {
					q := ext.ExtractCopy(p, testL)
					if i >= 4 {
						for j := range q {
							q[j] += 0.05 * float64(j%5-2)
						}
					}
					qs = append(qs, q)
				}

				tree, err := core.Build(ext, core.Config{L: testL})
				if err != nil {
					t.Fatal(err)
				}
				fz := tree.Freeze()
				byShards := map[int]*shard.Index{}
				for _, p := range []int{1, 2, 4, 7} {
					sh, err := shard.Build(ext, shard.Config{Config: core.Config{L: testL}, Shards: p})
					if err != nil {
						t.Fatal(err)
					}
					byShards[p] = sh
				}
				_, path := buildSaved(t, ext, 4)
				cl, srvs, chaos := startReplicated(t, ext, path, [][]int{{0, 1}, {2, 3}}, 2, cluster.Options{})
				// One replica of the first group refuses connections, so
				// the first cluster top-k crosses a failover and the rest
				// run with that replica marked down.
				chaos.Set(hostOf(t, srvs[0]), ChaosRule{Refuse: true})

				backings := []struct {
					name string
					run  func(qi, k int) []series.Match
				}{
					{"frozen", func(qi, k int) []series.Match { return fz.SearchTopK(qs[qi], k) }},
					{"shards=1", func(qi, k int) []series.Match { return byShards[1].SearchTopK(qs[qi], k) }},
					{"shards=2", func(qi, k int) []series.Match { return byShards[2].SearchTopK(qs[qi], k) }},
					{"shards=4", func(qi, k int) []series.Match { return byShards[4].SearchTopK(qs[qi], k) }},
					{"shards=7", func(qi, k int) []series.Match { return byShards[7].SearchTopK(qs[qi], k) }},
					{"cluster-r2", func(qi, k int) []series.Match {
						ms, err := cl.SearchTopK(ctx, qs[qi], k)
						if err != nil {
							t.Fatalf("cluster top-k: %v", err)
						}
						return ms
					}},
				}

				// k = 3 and 4 cut through the six distance-0 duplicates
				// (and through the all-tie constant series anywhere).
				for _, k := range []int{1, 3, 4, 10, windows, windows + 5} {
					for qi := range qs {
						want := oracle.TopK(ext, qs[qi], k)
						for _, b := range backings {
							got := b.run(qi, k)
							if !sameMatches(want, got) {
								t.Fatalf("%s k=%d q=%d: got %d matches, want %d; first divergence: %s",
									b.name, k, qi, len(got), len(want), firstDiff(want, got))
							}
							// Metamorphic: top-k is a prefix of top-(k+1).
							// (Shard-count invariance is the shards=1/2/4/7
							// rows agreeing with the one oracle.)
							if next := b.run(qi, k+1); !sameMatches(got, next[:min(len(got), len(next))]) {
								t.Fatalf("%s q=%d: top-%d is not a prefix of top-%d", b.name, qi, k, k+1)
							}
						}
					}
				}
			})
		}
	}
}

func firstDiff(want, got []series.Match) string {
	for i := range min(len(want), len(got)) {
		if want[i] != got[i] {
			return fmt.Sprintf("at %d want %+v got %+v", i, want[i], got[i])
		}
	}
	return "one is a strict prefix of the other"
}

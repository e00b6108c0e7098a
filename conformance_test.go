package twinsearch

// TestConformance is the one conformance grid. Every search path of
// every backing — built with one shard and with four, the two saved
// streams opened by copy and by mapping, and coordinators at R = 1 and
// R = 2 over loopback shard nodes, every answer crossing the shard RPC
// — under every normalization, with the result cache off and on and
// tracing off and forced, answers what internal/oracle's
// definition answers over the engine's own extractor: Start and the
// bits of Dist, order included. The kernel axis is the environment's:
// CI runs the whole suite again under TWINSEARCH_KERNEL=portable.
//
// Beside the definition the grid checks what an exact engine must keep:
// a larger ε never loses a twin, top-k is a prefix of top-(k+1), the
// backing's counters count the matches it returns and depend on the
// partition alone — not on the backing or the coordinator — and a
// traced range query that misses the result cache books exactly those
// counters on its span tree. On the planted-duplicates input the
// appendable backings then take an append leg: a short chunk, a seventh
// copy of the duplicated window (cached range, top-k and prefix
// answers are extended over it; every traversal scans it as the index's
// tail, and a traced one books the scan on its span tree), then more
// than maxTailScan windows (cached answers are recomputed, and the
// tail is compacted into the last shard); after each, every path is the
// definition's over the grown series.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"twinsearch/internal/cluster"
	"twinsearch/internal/core"
	"twinsearch/internal/datasets"
	"twinsearch/internal/obs"
	"twinsearch/internal/oracle"
	"twinsearch/internal/series"
	"twinsearch/internal/shard"
)

const confL = 32

// matchListsEq reports whether a and b hold the same matches in the
// same order, Dist compared bit for bit.
func matchListsEq(a, b []Match) bool {
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

// confInput is one series of the grid and the starts of its queries'
// windows; the last query is its window perturbed off the series. The
// local backings of a growing input take the append leg.
type confInput struct {
	name    string
	data    []float64
	starts  []int
	growing bool
}

func confInputs() []confInput {
	// Six exact twins of the window at 250 (identical windows normalize
	// identically under every norm), so k = 3 and 4 cut through a tie.
	dups := datasets.EEGN(23, 700)
	for _, at := range []int{40, 170, 333, 501, 650} {
		copy(dups[at:at+confL], dups[250:250+confL])
	}
	return []confInput{
		{"eeg", datasets.EEGN(29, 700), []int{500, 700 - confL, 97}, false},
		{"duplicates", dups, []int{250, 0, 411}, true},
		{"constant", slices.Repeat([]float64{1.5}, 500), []int{0, 12}, false},
	}
}

// confBacking is one way to stand an engine up over a series. Backings
// with equal shards share a partition, and with it every traversal
// counter; local ones take appends.
type confBacking struct {
	name   string
	shards int
	local  bool
	open   func(data []float64, o Options) (*Engine, error)
}

// confBackings saves data's single and four-shard index under o and
// returns the grid's backings over them.
func confBackings(t *testing.T, data []float64, o Options) []confBacking {
	t.Helper()
	tsfzPath, tsshPath := filepath.Join(t.TempDir(), "index.tsfz"), filepath.Join(t.TempDir(), "index.tssh")
	for shards, path := range map[int]string{1: tsfzPath, 4: tsshPath} {
		o := o
		o.Shards = shards
		eng, err := Open(data, o)
		if err == nil {
			err = eng.SaveIndexFile(path)
			eng.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	tsfz, err := os.ReadFile(tsfzPath)
	if err != nil {
		t.Fatal(err)
	}
	return []confBacking{
		{"built/1", 1, true, func(d []float64, o Options) (*Engine, error) { o.Shards = 1; return Open(d, o) }},
		{"built/4", 4, true, func(d []float64, o Options) (*Engine, error) { o.Shards, o.Workers = 4, 1; return Open(d, o) }},
		{"copy/TSFZ", 1, true, func(d []float64, o Options) (*Engine, error) { return OpenSaved(d, bytes.NewReader(tsfz), o) }},
		{"mmap/TSFZ", 1, true, func(d []float64, o Options) (*Engine, error) {
			o.MMap, o.Prefetch = true, true
			return OpenSavedFile(d, tsfzPath, o)
		}},
		{"mmap/TSSH", 4, true, func(d []float64, o Options) (*Engine, error) {
			o.MMap, o.Workers = true, 3
			return OpenSavedFile(d, tsshPath, o)
		}},
		{"cluster/R1", 4, false, func(d []float64, o Options) (*Engine, error) {
			o.Topology = nodeTopology(t, tsshPath, d, o.Norm, 4, 2, 1)
			return Open(d, o)
		}},
		{"cluster/R2", 4, false, func(d []float64, o Options) (*Engine, error) {
			o.Topology = nodeTopology(t, tsshPath, d, o.Norm, 4, 2, 2)
			return Open(d, o)
		}},
	}
}

// nodeTopology serves the saved index at path from loopback shard
// nodes over data under norm — groups contiguous runs of its shards,
// each served by replicas nodes, every node its shard RPC behind an
// httptest server — and writes their topology, returning its path. The
// nodes stop when t ends.
func nodeTopology(t testing.TB, path string, data []float64, norm NormMode, shards, groups, replicas int) string {
	t.Helper()
	return nodeTopologyWith(t, path, data, norm, shards, groups, replicas, cluster.NodeOptions{})
}

// nodeTopologyWith is nodeTopology with every node opened under o.
func nodeTopologyWith(t testing.TB, path string, data []float64, norm NormMode, shards, groups, replicas int, o cluster.NodeOptions) string {
	t.Helper()
	doc := &cluster.Topology{Index: path, Replicas: replicas}
	for g := 0; g < groups; g++ {
		var run cluster.ShardList
		for s := g * shards / groups; s < (g+1)*shards/groups; s++ {
			run = append(run, s)
		}
		for range replicas {
			doc.Nodes = append(doc.Nodes, cluster.NodeSpec{Name: fmt.Sprintf("n%d", len(doc.Nodes)), Shards: run})
		}
	}
	ext := series.NewExtractor(data, norm)
	for i := range doc.Nodes {
		n, err := cluster.OpenNode(doc, doc.Nodes[i].Name, ext, o)
		if err != nil {
			t.Fatal(err)
		}
		rpc := cluster.NewNodeRPC(n)
		srv := httptest.NewServer(rpc)
		t.Cleanup(func() {
			// httptest waits for no stream's query: drain before unmapping.
			srv.Close()
			rpc.BeginDrain()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := rpc.Drained(ctx); err != nil {
				t.Errorf("node %s: %v; left mapped", n.Name, err)
				return
			}
			n.Close()
		})
		doc.Nodes[i].Addr = srv.URL
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	topo := filepath.Join(t.TempDir(), "topo.json")
	if err := os.WriteFile(topo, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestConformance(t *testing.T) {
	for _, in := range confInputs() {
		var qs [][]float64
		for _, s := range in.starts {
			qs = append(qs, slices.Clone(in.data[s:s+confL]))
		}
		for j, last := range qs[len(qs)-1] {
			qs[len(qs)-1][j] = last + 0.05*float64(j%5-2)
		}
		for _, norm := range []NormMode{NormNone, NormGlobal, NormPerSubsequence} {
			t.Run(fmt.Sprintf("%s/%v", in.name, norm), func(t *testing.T) {
				t.Parallel()
				base := Options{L: confL, Norm: norm, NormSet: true}
				g := &confGrid{counters: map[[4]int]core.Stats{}, series: map[int][]float64{}, wants: map[[2]int]*confWant{}}
				for _, b := range confBackings(t, in.data, base) {
					for _, cached := range []bool{false, true} {
						t.Run(fmt.Sprintf("%s/cache=%v", b.name, cached), func(t *testing.T) {
							o := base
							if cached {
								withServingCaches(&o)
							}
							eng, err := b.open(slices.Clone(in.data), o)
							if err != nil {
								t.Fatal(err)
							}
							defer eng.Close()
							if eng.Shards() != b.shards {
								t.Fatalf("%d shards, want %d", eng.Shards(), b.shards)
							}
							c := &confCell{t: t, eng: eng, grid: g, cached: cached, shards: b.shards}
							c.check(qs)
							if st := eng.ServingStats(); cached && (st.Result.Hits == 0 || st.Result.Misses == 0) {
								t.Fatalf("caches never exercised: %+v", st)
							}
							if !b.local || !in.growing {
								return
							}
							// The append leg: after each chunk, every path on the
							// first query, whose window the short chunk repeats.
							// The short chunk stays in the tail; the long one
							// carries it past the compaction bound.
							for i, chunk := range [][]float64{qs[0], datasets.EEGN(31, maxTailScan+1)} {
								if err := eng.Append(chunk...); err != nil {
									t.Fatal(err)
								}
								if tail, want := eng.ServingStats().TailWindows, []int{len(chunk), 0}[i]; tail != want {
									t.Fatalf("append %d left %d windows in the tail, want %d", i, tail, want)
								}
								c.phase++
								c.check(qs[:1])
							}
						})
					}
				}
			})
		}
	}
}

// confGrid is what the cells of one input and norm share: the first
// traversal counters each partition reported and, per append phase, the
// definition's answers — computed over the first cell's extractor, which
// every later cell's must equal value for value.
type confGrid struct {
	counters map[[4]int]core.Stats // per partition, phase, query and threshold
	series   map[int][]float64     // per phase: the extractor's values, then its global mean and σ
	wants    map[[2]int]*confWant  // per phase and query
}

// confWant is the definition's answers to one query over the series as
// it stands.
type confWant struct {
	q, tq  []float64
	eps    [2]float64 // fixed at phase 0, so cached entries carry over appends
	all    []Match    // every window, nearest first
	ranges [2][]Match // at eps
	prefix []Match    // of the query's first half, at eps[1]
}

// want returns the definition's answers to query qi at the current
// phase, computed over c's extractor the first time they are asked for.
func (c *confCell) want(qi int, q []float64) *confWant {
	e, key := c.eng, [2]int{c.phase, qi}
	if d := c.grid.wants[key]; d != nil {
		return d
	}
	d := &confWant{q: q, tq: e.PrepareQuery(q)}
	d.all = oracle.TopK(e.ext, d.tq, e.NumSubsequences())
	// Thresholds that admit at least 5 and 40 twins, whatever the value
	// space.
	d.eps = [2]float64{d.all[4].Dist, d.all[39].Dist}
	if c.phase > 0 {
		d.eps = c.grid.wants[[2]int{0, qi}].eps
	}
	for i := range d.eps {
		d.ranges[i] = oracle.Range(e.ext, d.tq, d.eps[i])
	}
	if e.Norm() != NormPerSubsequence {
		indexed, tail := oracle.Prefix(e.ext, confL, e.PrepareQuery(q[:confL/2]), d.eps[1])
		d.prefix = append(indexed, tail...)
	}
	c.grid.wants[key] = d
	return d
}

// confCell is one engine of the grid and what it has answered so far.
type confCell struct {
	t      *testing.T
	eng    *Engine
	grid   *confGrid
	cached bool
	shards int
	phase  int
}

// check runs every path on every query, untraced and traced — in both
// orders, so that a cached engine serves a miss and a hit each way.
func (c *confCell) check(qs [][]float64) {
	c.t.Helper()
	e, w := c.eng, c.eng.NumSubsequences()
	mean, std := e.ext.GlobalParams()
	held := append(slices.Clone(e.ext.Data()), mean, std)
	if ref, ok := c.grid.series[c.phase]; !ok {
		c.grid.series[c.phase] = held
	} else if !slices.Equal(held, ref) {
		c.t.Fatalf("phase %d: the engine's extractor holds other values than the first engine's", c.phase)
	}
	ks := []int{1, 3, 4, 10, w, w + 5}
	for qi, q := range qs {
		d := c.want(qi, q)
		reps, traces := 1, [2][]bool{{false, true}, {true, false}}[qi%2]
		if c.cached {
			reps = 2 // the miss, then the hit
		}
		for _, traced := range traces {
			for range reps {
				ctx := context.Background()
				if traced {
					ctx = obs.WithSpan(ctx, obs.NewTrace("conformance").Root)
				}
				c.paths(ctx, fmt.Sprintf("phase %d q%d traced=%v", c.phase, qi, traced), qi, d, ks)
			}
		}
	}
}

// paths runs each single-query path once on query qi.
func (c *confCell) paths(ctx context.Context, at string, qi int, d *confWant, ks []int) {
	c.t.Helper()
	e, q := c.eng, d.q
	var ranges [2][]Match
	for i, eps := range d.eps {
		// A traced call gets a trace of its own, so that its tree holds
		// this one query's counters.
		rctx, root := ctx, (*obs.Span)(nil)
		if obs.SpanFrom(ctx) != nil {
			root = obs.NewTrace("range").Root
			rctx = obs.WithSpan(ctx, root)
		}
		got, err := e.SearchCtx(rctx, q, eps)
		c.expect(at+fmt.Sprintf(" Search(ε=%g)", eps), got, err, d.ranges[i])
		ranges[i] = got
		got, st, err := backingStats(e, d.tq, eps)
		c.expect(at+fmt.Sprintf(" backing SearchStats(ε=%g)", eps), got, err, d.ranges[i])
		key := [4]int{c.shards, c.phase, qi, i}
		if prev, seen := c.grid.counters[key]; seen && st != prev || st.Results != len(got) {
			c.t.Fatalf("%s: backing SearchStats(ε=%g) counted %+v for %d matches; the partition counted %+v", at, eps, st, len(got), prev)
		}
		c.grid.counters[key] = st
		if root == nil {
			continue
		}
		if rc := root.Attrs["result_cache"]; rc == "miss" || rc == "off" {
			st.Results = 0 // the root span's own attribute, not a traversal counter
			if booked := spanCounters(root); booked != st {
				c.t.Fatalf("%s: traced Search(ε=%g) booked %+v on its span tree; the backing counted %+v", at, eps, booked, st)
			}
		}
	}
	if !subset(ranges[0], ranges[1]) {
		c.t.Fatalf("%s: a twin at ε=%g is lost at ε=%g", at, d.eps[0], d.eps[1])
	}
	var prev []Match
	for _, k := range ks {
		got, err := e.SearchTopKCtx(ctx, q, k)
		c.expect(at+fmt.Sprintf(" SearchTopK(k=%d)", k), got, err, d.all[:min(k, len(d.all))])
		if !matchListsEq(prev, got[:len(prev)]) {
			c.t.Fatalf("%s: top-%d is not a prefix of top-%d", at, len(prev), k)
		}
		prev = got
	}

	eps := d.eps[1]
	got, err := e.SearchCtx(ctx, q[:confL/2], eps)
	if e.Norm() == NormPerSubsequence {
		if want := "core: prefix queries are unsupported under per-subsequence normalization"; err == nil || err.Error() != want || got != nil {
			c.t.Fatalf("%s: shorter Search under per-window norm: %d matches, error %v, want %q", at, len(got), err, want)
		}
	} else {
		c.expect(at+" shorter Search", got, err, d.prefix)
	}
}

// backingStats runs a range query, tq in the engine's value space, on
// the engine's backing — its shard index or its coordinator — untraced
// and uncached, and returns its traversal counters.
func backingStats(e *Engine, tq []float64, eps float64) ([]Match, core.Stats, error) {
	if e.cl != nil {
		return e.cl.SearchStats(context.Background(), tq, eps)
	}
	return e.sh.SearchStatsCtx(context.Background(), tq, eps)
}

// spanCounters sums the traversal counters booked on the span tree
// under s. Results stays 0. A node's subtree is grafted from JSON, so
// its counters are float64.
func spanCounters(s *obs.Span) core.Stats {
	n := func(k string) int { return spanInt(s, k) }
	st := core.Stats{NodesVisited: n("nodes_visited"), NodesPruned: n("nodes_pruned"),
		LeavesReached: n("leaves_reached"), Candidates: n("candidates"), Abandons: n("abandons")}
	for _, c := range s.Children {
		st = shard.AddStats(st, spanCounters(c))
	}
	return st
}

// spanInt reads s's integer attribute k: an int where the span was
// recorded in process, a float64 where it was grafted from a node's
// JSON, 0 where it is absent.
func spanInt(s *obs.Span, k string) int {
	if v, ok := s.Attrs[k].(float64); ok {
		return int(v)
	}
	v, _ := s.Attrs[k].(int)
	return v
}

// expect fails the cell unless got is want.
func (c *confCell) expect(at string, got []Match, err error, want []Match) {
	c.t.Helper()
	if err != nil || !matchListsEq(got, want) {
		c.t.Fatalf("%s: %d matches (error %v), the definition %d:\n got  %v\n want %v", at, len(got), err, len(want), got[:min(len(got), 12)], want[:min(len(want), 12)])
	}
}

// subset reports whether every match of a is one of b's, both in start
// order.
func subset(a, b []Match) bool {
	j := 0
	for _, m := range a {
		for j < len(b) && b[j].Start < m.Start {
			j++
		}
		if j == len(b) || b[j] != m {
			return false
		}
	}
	return true
}

package twinsearch

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"twinsearch/internal/cluster"
	"twinsearch/internal/datasets"
	"twinsearch/internal/obs"
)

// countersGolden pins, per query of each served workload's mix, the
// work the index did to answer it (see TestWorkloadCounters).
const countersGolden = "testdata/counters.golden"

// counterWorkload is one served workload rebuilt at smoke scale: the
// engine the benchmark serves it from, its range threshold, and its
// traffic — distinct queries, or a Zipf pool with appends between them.
type counterWorkload struct {
	name string
	eps  float64
	open func(t *testing.T, data []float64) (*Engine, error)
	ops  int
	// pool > 0 draws the queries Zipf-distributed from pool fixed
	// windows and appends one of them every appendEvery-th op.
	pool, appendEvery int
}

// servedOptions is the served configuration (tsserve's defaults: global
// normalization, the result cache at its default size) on a one-worker
// executor: the shards of a multi-shard top-k share a bound whose
// tightening order would otherwise depend on timing.
func servedOptions() Options {
	return Options{L: 100, Norm: NormGlobal, NormSet: true, ResultCacheBytes: -1, Workers: 1}
}

// saveIndex builds a cacheless index over data with the given shard
// count and saves it under t's temporary directory.
func saveIndex(t *testing.T, data []float64, shards int) string {
	t.Helper()
	eng, err := Open(data, Options{L: 100, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	path := filepath.Join(t.TempDir(), "index")
	if err := eng.SaveIndexFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

var counterWorkloads = []counterWorkload{
	{name: "point", eps: 0.2, ops: 60, open: func(t *testing.T, data []float64) (*Engine, error) {
		return Open(data, servedOptions())
	}},
	{name: "wide-sharded", eps: 1.0, ops: 60, open: func(t *testing.T, data []float64) (*Engine, error) {
		o := servedOptions()
		o.Shards = 4
		return Open(data, o)
	}},
	{name: "hot-append", eps: 0.2, ops: 120, pool: 16, appendEvery: 20, open: func(t *testing.T, data []float64) (*Engine, error) {
		return OpenSavedFile(data, saveIndex(t, data, 0), servedOptions())
	}},
	{name: "cluster-r2", eps: 0.2, ops: 60, open: func(t *testing.T, data []float64) (*Engine, error) {
		o := servedOptions()
		o.MMap = true
		o.Topology = nodeTopologyWith(t, saveIndex(t, data, 4), data, NormGlobal, 4, 2, 2, cluster.NodeOptions{Workers: 1})
		return Open(data, o)
	}},
}

// TestWorkloadCounters pins the counters of the four served workloads'
// query mixes (bench/'s point, wide-sharded, hot-append and cluster-r2
// at smoke scale: EEG 20 000 points, L = 100, top-10 at a fifth of the
// ops, fixed seeds), replayed from one goroutine, with hot-append's
// appends between its queries, each mix followed by a few range queries
// shorter than L, which the benchmark does not send. Per query: how the result cache served
// it, the nodes whose bound was evaluated, the leaves reached, the
// candidates verified, the results, the tail windows scanned and, on
// the cluster, the replica attempts. Answers stay right when pruning
// gets worse, so the conformance grid cannot see a looser bound; these
// lines can. Nothing here depends on timing: range counters never do,
// and every executor, the engine's and each cluster node's, runs one
// worker, so a multi-shard top-k's shards tighten their shared bound
// in one order.
func TestWorkloadCounters(t *testing.T) {
	raw, err := os.ReadFile(countersGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	data := datasets.EEGN(1, 20_000)
	var got []string
	for _, w := range counterWorkloads {
		got = append(got, w.replay(t, slices.Clone(data))...)
	}
	if slices.Equal(got, want) {
		return
	}
	if len(got) != len(want) {
		t.Errorf("%d lines, golden has %d", len(got), len(want))
	}
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], want[i])
		}
	}
	// A change that moves pruning on purpose re-pins: review the lines
	// above, then move the rendered file over the golden.
	if err := os.WriteFile(countersGolden+".got", []byte(strings.Join(got, "\n")+"\n"), 0o644); err == nil {
		t.Errorf("rendered lines written to %s.got", countersGolden)
	}
}

// replay runs w's op mix on a fresh engine over data and renders one
// line per op.
func (w counterWorkload) replay(t *testing.T, data []float64) []string {
	eng, err := w.open(t, data)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rng := rand.New(rand.NewSource(7))
	windows := len(data) - eng.L() + 1
	starts := rng.Perm(windows)[:w.ops]
	var zipf *rand.Zipf
	if w.pool > 0 {
		starts = starts[:w.pool]
		zipf = rand.NewZipf(rng, 1.1, 1, uint64(w.pool-1))
	}
	var lines []string
	appendAt := func(i, p int) {
		if err := eng.Append(data[p : p+eng.L()]...); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("%s\t%d\tappend\tq=%d\twindows=%d", w.name, i, p, eng.NumSubsequences()))
	}
	query := func(i int, kind string, p int, search func(ctx context.Context) error) {
		tr := obs.NewTrace("q")
		if err := search(obs.WithSpan(context.Background(), tr.Root)); err != nil {
			t.Fatalf("%s op %d: %v", w.name, i, err)
		}
		tr.Finish()
		lines = append(lines, fmt.Sprintf("%s\t%d\t%s\tq=%d\t%s", w.name, i, kind, p, traceCounters(tr.Root)))
	}
	for i := range w.ops {
		qi := i
		if zipf != nil {
			qi = int(zipf.Uint64())
		}
		topk := rng.Float64() < 0.2
		if w.appendEvery > 0 && i%w.appendEvery == w.appendEvery-1 {
			appendAt(i, starts[rng.Intn(w.pool)])
			continue
		}
		p := starts[qi]
		q := data[p : p+eng.L()]
		if topk {
			query(i, "topk", p, func(ctx context.Context) (err error) {
				_, err = eng.SearchTopKCtx(ctx, q, 10)
				return err
			})
		} else {
			query(i, "search", p, func(ctx context.Context) (err error) {
				_, err = eng.SearchCtx(ctx, q, w.eps)
				return err
			})
		}
	}
	// Then range queries shorter than L, drawn from an RNG of their own
	// so that the mix above keeps its draws: at each length a miss — the
	// index holding the last shard scans the L − ℓ windows that exist
	// only at length ℓ as tail — and the same query again, a hit; on an
	// appending workload an Append follows and the query comes a third
	// time, an extended hit.
	srng := rand.New(rand.NewSource(11))
	i := w.ops
	for _, l := range []int{50, 75} {
		p := srng.Intn(windows)
		q := data[p : p+l]
		search := func(ctx context.Context) (err error) {
			_, err = eng.SearchCtx(ctx, q, w.eps)
			return err
		}
		kind := fmt.Sprintf("search/l=%d", l)
		query(i, kind, p, search)
		query(i+1, kind, p, search)
		i += 2
		if w.appendEvery > 0 {
			appendAt(i, srng.Intn(windows))
			query(i+1, kind, p, search)
			i += 2
		}
	}
	return lines
}

// traceCounters renders the counters a query's span tree booked. A
// node's subtree is grafted from JSON, so its numbers are float64.
func traceCounters(root *obs.Span) string {
	sum := map[string]int{}
	attempts := 0
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		if s.Name == "attempt" {
			attempts++
		}
		for _, k := range []string{"nodes_visited", "leaves_reached", "candidates", "tail_windows"} {
			switch v := s.Attrs[k].(type) {
			case int:
				sum[k] += v
			case float64:
				sum[k] += int(v)
			}
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(root)
	line := fmt.Sprintf("cache=%v\tvisited=%d\tleaves=%d\tcandidates=%d\tresults=%v\ttail=%d",
		root.Attrs["result_cache"], sum["nodes_visited"], sum["leaves_reached"], sum["candidates"], root.Attrs["results"], sum["tail_windows"])
	if attempts > 0 {
		line += fmt.Sprintf("\tattempts=%d", attempts)
	}
	return line
}

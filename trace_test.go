package twinsearch

// Trace-path guarantees: the disabled path is allocation-free (the
// engine's observability hooks must cost production queries nothing),
// and a forced trace records the layers it claims to cover. That it
// changes no answer on any path is TestConformance's trace axis.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"twinsearch/internal/datasets"
	"twinsearch/internal/mbts/kernel"
	"twinsearch/internal/obs"
)

// traceBenchEngine builds the smallest engine whose SearchCtx hot
// path runs without allocating: raw values (NormNone skips the
// transform copy when uncached), no caches, no sharding, tracing off.
// The query sits far outside the indexed value range, so the MBTS bound
// prunes at the root and the answer is empty — the path's only
// remaining allocation (the result slice) never happens, making a
// strict 0 allocs/op assertion possible.
func traceBenchEngine(tb testing.TB) (*Engine, []float64) {
	tb.Helper()
	ts := datasets.RandomWalk(3, 600)
	eng, err := Open(ts, Options{L: 100, Norm: NormNone, NormSet: true})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { eng.Close() })
	q := make([]float64, 100)
	for i := range q {
		q[i] = ts[i] + 1e6
	}
	return eng, q
}

// TestSearchCtxNoAllocs pins the disabled-trace contract exactly: with
// tracing off, a range query allocates nothing beyond its result slice
// — with a root-pruned query, nothing at all.
func TestSearchCtxNoAllocs(t *testing.T) {
	eng, q := traceBenchEngine(t)
	ctx := context.Background()
	// Warm once so any lazily-initialized state is paid for.
	if _, err := eng.SearchCtx(ctx, q, 0.1); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := eng.SearchCtx(ctx, q, 0.1); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("SearchCtx with tracing off: %.1f allocs/op, want 0", avg)
	}
}

// BenchmarkTraceDisabled is the enforced form of the "disabled path is
// free" claim: run with -benchmem, it must report 0 B/op beyond the
// result slice. CI's bench smoke executes it.
func BenchmarkTraceDisabled(b *testing.B) {
	eng, q := traceBenchEngine(b)
	ctx := context.Background()
	if _, err := eng.SearchCtx(ctx, q, 0.1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.SearchCtx(ctx, q, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceForced prices a full per-query span tree against the
// BenchmarkTraceDisabled baseline.
func BenchmarkTraceForced(b *testing.B) {
	eng, q := traceBenchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := obs.NewTrace("bench")
		ctx := obs.WithSpan(context.Background(), tr.Root)
		if _, err := eng.SearchCtx(ctx, q, 0.1); err != nil {
			b.Fatal(err)
		}
		tr.Finish()
	}
}

// TestForcedTraceShape asserts the span tree a forced local query
// produces actually contains the layers the trace claims to cover.
func TestForcedTraceShape(t *testing.T) {
	ts := datasets.RandomWalk(9, 4000)
	eng, err := Open(ts, Options{L: 100, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q := append([]float64(nil), ts[500:600]...)

	tr := obs.NewTrace("q")
	ctx := obs.WithSpan(context.Background(), tr.Root)
	if _, err := eng.SearchCtx(ctx, q, 0.4); err != nil {
		t.Fatal(err)
	}
	tr.Finish()

	names := map[string]int{}
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		names[s.Name]++
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(tr.Root)
	for _, want := range []string{"validate", "traverse", "merge"} {
		if names[want] == 0 {
			t.Fatalf("forced trace missing %q span; got %v", want, names)
		}
	}
	if names["shard[0]"] == 0 || names["shard[2]"] == 0 {
		t.Fatalf("forced trace missing per-shard spans; got %v", names)
	}
}

// TestSamplerOwnedTrace checks 1-in-N sampling produces engine-owned
// traces that feed the trace counter without any caller involvement.
func TestSamplerOwnedTrace(t *testing.T) {
	ts := datasets.RandomWalk(11, 900)
	eng, err := Open(ts, Options{L: 100, TraceSample: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q := append([]float64(nil), ts[:100]...)
	for i := 0; i < 8; i++ {
		if _, err := eng.SearchCtx(context.Background(), q, 0.3); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := eng.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	count := -1.0
	for _, line := range strings.Split(buf.String(), "\n") {
		if n, ok := strings.CutPrefix(line, "twinsearch_traces_total "); ok {
			if _, err := fmt.Sscanf(n, "%g", &count); err != nil {
				t.Fatalf("bad trace counter line %q: %v", line, err)
			}
		}
	}
	// 8 queries at 1-in-2 sampling: exactly 4 engine-owned traces.
	if count != 4 {
		t.Fatalf("twinsearch_traces_total = %g after 8 queries sampled 1-in-2, want 4", count)
	}
}

// TestQueriesCounted: every call is visible on /metrics — a query on
// its path, a refused one also a query error — on a local engine and on
// a coordinator alike. A prefix query refused for a NaN value or a
// negative threshold counts too.
func TestQueriesCounted(t *testing.T) {
	ts := datasets.RandomWalk(13, 2000)
	const l = 100
	local, err := Open(ts, Options{L: l, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	cl, err := Open(ts, Options{L: l, Topology: writeTopology(t, ts, l, 4, 2), MMap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	queries := [][]float64{ts[0:l], ts[300 : 300+l], ts[900 : 900+l], {1, 2}}
	for name, eng := range map[string]*Engine{"local": local, "cluster": cl} {
		for _, q := range queries {
			eng.Search(q, 0.3)
			eng.SearchTopK(q, 3)
		}
		ctx := context.Background()
		eng.SearchShorterCtx(ctx, ts[0:l/2], 0.3)
		eng.SearchShorterCtx(ctx, []float64{1, math.NaN()}, 0.3)
		eng.SearchShorterCtx(ctx, ts[0:l/2], -1)
		for path, want := range map[string][2]uint64{"search": {4, 1}, "topk": {4, 1}, "prefix": {3, 2}} {
			label := `{path="` + path + `"}`
			n := eng.Metrics().Counter("twinsearch_queries_total" + label).Value()
			errs := eng.Metrics().Counter("twinsearch_query_errors_total" + label).Value()
			if n != want[0] || errs != want[1] {
				t.Errorf("%s %s: counted %d queries, %d errors; want %d, %d",
					name, path, n, errs, want[0], want[1])
			}
		}
	}
}

// TestMetricsIndexInfo requires every open path — a build, a copy open
// and a mapped open of the saved index, and a coordinator — to publish
// the index info series (kernel dispatch, partition count) and the
// open's wall time, positive and no longer than the call itself took.
func TestMetricsIndexInfo(t *testing.T) {
	ts := datasets.RandomWalk(17, 2000)
	const l = 100
	walls := map[*Engine]time.Duration{}
	engines := map[string]*Engine{}
	open := func(name string, f func() (*Engine, error)) *Engine {
		start := time.Now()
		eng, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		walls[eng], engines[name] = time.Since(start), eng
		t.Cleanup(func() { eng.Close() })
		return eng
	}
	built := open("built", func() (*Engine, error) { return Open(ts, Options{L: l, Shards: 2}) })
	path := filepath.Join(t.TempDir(), "index.tssh")
	if err := built.SaveIndexFile(path); err != nil {
		t.Fatal(err)
	}
	for _, mmap := range []bool{false, true} {
		open(fmt.Sprintf("saved/mmap=%v", mmap), func() (*Engine, error) {
			return OpenSavedFile(ts, path, Options{L: l, MMap: mmap, Prefetch: mmap})
		})
	}
	topo := writeTopology(t, ts, l, 4, 2)
	open("cluster", func() (*Engine, error) { return Open(ts, Options{L: l, Topology: topo, MMap: true}) })
	const gauge = "\ntwinsearch_index_open_seconds "
	for name, eng := range engines {
		var buf bytes.Buffer
		if err := eng.Metrics().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		text := buf.String()
		info := fmt.Sprintf(`twinsearch_index_info{kernel="%s",shards="%d"} 1`, kernel.Active(), eng.Shards())
		i := strings.Index(text, gauge)
		if !strings.Contains(text, info+"\n") || i < 0 {
			t.Errorf("%s: /metrics lacks %q or twinsearch_index_open_seconds:\n%s", name, info, text)
			continue
		}
		var secs float64
		if _, err := fmt.Sscan(text[i+len(gauge):], &secs); err != nil || secs <= 0 || secs > walls[eng].Seconds() {
			t.Errorf("%s: twinsearch_index_open_seconds = %v (%v), the call took %v", name, secs, err, walls[eng])
		}
	}
}

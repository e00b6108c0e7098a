package twinsearch

// Engine-level guarantees of the top-k path: its allocation budget
// with tracing and caches off, and the traversal counters a forced
// trace attaches on every local backing.

import (
	"context"
	"math"
	"testing"

	"twinsearch/internal/datasets"
	"twinsearch/internal/obs"
)

// TestSearchTopKCtxAllocs pins the uncached, untraced top-k budget on
// the serving shape (see core's TestFrozenTopKAllocs, which this adds
// the query transform to): 5–6 measured, 10 allowed. The same call
// cost 540–940 allocations while the traversal boxed its heap elements.
// The budget is not asserted under -race, under which sync.Pool drops
// a share of its Puts (see raceEnabled).
func TestSearchTopKCtxAllocs(t *testing.T) {
	data := datasets.EEGN(1, 50000)
	eng, err := Open(data, Options{L: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	for _, q := range datasets.Queries(data, 7, 8, 100) {
		avg := testing.AllocsPerRun(10, func() {
			if ms, err := eng.SearchTopKCtx(ctx, q, 10); err != nil || len(ms) != 10 {
				t.Fatalf("top-k: %d matches, err %v", len(ms), err)
			}
		})
		if avg > 10 && !raceEnabled {
			t.Fatalf("SearchTopKCtx(k=10) uncached, untraced: %.0f allocs/query, budget 10", avg)
		}
	}
}

// TestForcedTraceTopK asserts a traced top-k is no longer blind below
// the engine: the traverse span carries the traversal's counters on a
// single index, and per-shard counter children plus a merge span on a
// sharded one; the root span carries the result count on both.
func TestForcedTraceTopK(t *testing.T) {
	ts := datasets.RandomWalk(9, 4000)
	q := append([]float64(nil), ts[500:600]...)
	for _, shards := range []int{0, 3} {
		eng, err := Open(ts, Options{L: 100, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace("q")
		ms, err := eng.SearchTopKCtx(obs.WithSpan(context.Background(), tr.Root), q, 5)
		if err != nil || len(ms) != 5 {
			t.Fatalf("shards=%d: %d matches, err %v", shards, len(ms), err)
		}
		tr.Finish()
		eng.Close()

		spans := map[string]*obs.Span{}
		var walk func(s *obs.Span)
		walk = func(s *obs.Span) {
			spans[s.Name] = s
			for _, c := range s.Children {
				walk(c)
			}
		}
		walk(tr.Root)
		trav := spans["traverse"]
		if trav == nil {
			t.Fatalf("shards=%d: traced top-k has no traverse span", shards)
		}
		// Which shard does the scoring depends on how fast the shared
		// bound tightens, so the sharded counters are checked in sum.
		counted := []*obs.Span{trav}
		if shards > 0 {
			if spans["merge"] == nil || len(trav.Children) != shards {
				t.Fatalf("shards=%d: traced top-k has merge=%v and %d shard spans", shards, spans["merge"], len(trav.Children))
			}
			counted = trav.Children
		}
		var visited, cand, abandons int
		for _, sp := range counted {
			v, _ := sp.Attrs["nodes_visited"].(int)
			c, _ := sp.Attrs["candidates"].(int)
			a, ok := sp.Attrs["abandons"].(int)
			if v == 0 || !ok {
				t.Fatalf("shards=%d: %s span counters %v", shards, sp.Name, sp.Attrs)
			}
			visited, cand, abandons = visited+v, cand+c, abandons+a
		}
		if cand < 5 || abandons > cand-5 {
			t.Fatalf("shards=%d: %d candidates, %d abandons for 5 results", shards, cand, abandons)
		}
		// The answer's size is the query's, not a traversal's: it sits on
		// the root span whatever the shard count, and the single index
		// records exactly validate → traverse beneath it.
		if tr.Root.Attrs["results"] != 5 {
			t.Fatalf("shards=%d: root span results = %v, want 5", shards, tr.Root.Attrs["results"])
		}
		if _, onTraverse := trav.Attrs["results"]; onTraverse {
			t.Fatalf("shards=%d: traverse span carries results: %v", shards, trav.Attrs)
		}
		if shards == 0 && (len(tr.Root.Children) != 2 || tr.Root.Children[0].Name != "validate" || tr.Root.Children[1] != trav || len(trav.Children) != 0) {
			t.Fatalf("single-index trace is not validate → traverse: %v", spans)
		}
	}
}

// TestInvalidQueryEveryBacking is the invalid-query table over every
// raw-query path that takes a query of its own, on every TS-Index
// backing. Top-k used to skip the length and finiteness checks, and
// the prefix path never looked at the values: a NaN or infinite query
// was traversed (NaN compares false against every limit, so it
// over-matches) by some paths and backings and refused by others. Now every cell fails before any
// traversal, with the text range search gives it — except a query
// shorter than L, which Search answers and top-k refuses.
func TestInvalidQueryEveryBacking(t *testing.T) {
	data := datasets.EEGN(61, 3000)
	const l = 100
	good := data[500 : 500+l]
	with := func(i int, v float64) []float64 {
		q := append([]float64(nil), good...)
		q[i] = v
		return q
	}
	rows := []struct {
		name   string
		q      []float64
		want   string
		search bool // Search answers it: a query shorter than L is a range query
	}{
		{"short", data[500 : 500+l-1], "twinsearch: query length 99, engine built for L=100", true},
		{"long", data[500 : 500+l+1], "twinsearch: query length 101, engine built for L=100", false},
		{"empty", nil, "twinsearch: query length 0, engine built for L=100", false},
		{"NaN", with(40, math.NaN()), "twinsearch: non-finite query value NaN at position 40", false},
		{"+Inf", with(0, math.Inf(1)), "twinsearch: non-finite query value +Inf at position 0", false},
		{"-Inf", with(l-1, math.Inf(-1)), "twinsearch: non-finite query value -Inf at position 99", false},
	}
	for name, opt := range map[string]Options{
		"unsharded": {L: l},
		"sharded":   {L: l, Shards: 4},
		"cluster":   {L: l, Topology: writeTopology(t, data, l, 4, 2)},
		"cached":    {L: l, ResultCacheBytes: -1},
	} {
		eng, err := Open(data, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			for pass := 0; pass < 2; pass++ { // the second pass meets whatever the first cached
				if _, err := eng.Search(row.q, 0.3); row.search && err != nil || !row.search && (err == nil || err.Error() != row.want) {
					t.Errorf("%s: Search(%s) error %v, want %q", name, row.name, err, row.want)
				}
				if ms, err := eng.SearchTopK(row.q, 5); err == nil || err.Error() != row.want {
					t.Errorf("%s: SearchTopK(%s) = %d matches, error %v, want %q", name, row.name, len(ms), err, row.want)
				}
			}
		}
		eng.Close()
	}
}

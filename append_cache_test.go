package twinsearch

// Append↔cache differential: a local TS-Index engine's Search and
// SearchTopK entries are not invalidated by Append but extended over
// the windows gained (see searchCached). Whatever the cache does —
// plain hit, extension, recompute — every answer must be byte-identical
// to an uncached engine fed the same appends, and both to the
// brute-force definition in internal/oracle.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"twinsearch/internal/datasets"
	"twinsearch/internal/obs"
	"twinsearch/internal/oracle"
	"twinsearch/internal/series"
)

// carryRig is one cached engine, its uncached shadow, and the oracle's
// extractor, all fed the same appends.
type carryRig struct {
	t              *testing.T
	cached, shadow *Engine
	ext            *series.Extractor
	probes         []carryProbe
}

// carryProbe is one cached request: a range search at eps, or a top-k
// when k > 0.
type carryProbe struct {
	q   []float64
	eps float64
	k   int
}

func (p carryProbe) String() string {
	if p.k > 0 {
		return fmt.Sprintf("topk(k=%d)", p.k)
	}
	return fmt.Sprintf("search(eps=%g)", p.eps)
}

func newCarryRig(t *testing.T, data []float64, opt Options) *carryRig {
	t.Helper()
	open := func(o Options) *Engine {
		e, err := Open(slices.Clone(data), o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	r := &carryRig{t: t, shadow: open(opt), ext: series.NewExtractor(slices.Clone(data), opt.Norm)}
	withServingCaches(&opt)
	r.cached = open(opt)
	return r
}

func (r *carryRig) append(vals []float64) {
	r.t.Helper()
	for _, e := range []*Engine{r.cached, r.shadow} {
		if err := e.Append(vals...); err != nil {
			r.t.Fatal(err)
		}
	}
	r.ext.Append(vals...)
}

// expect sends every probe to all three and requires one answer, then
// pins how the cached engine's result cache served the round.
func (r *carryRig) expect(step string, hits, extended, misses uint64) {
	r.t.Helper()
	before := r.cached.ServingStats().Result
	for _, p := range r.probes {
		var got, plain, want []Match
		var err, perr error
		tq := r.ext.TransformQuery(p.q)
		if p.k > 0 {
			got, err = r.cached.SearchTopK(p.q, p.k)
			plain, perr = r.shadow.SearchTopK(p.q, p.k)
			want = oracle.TopK(r.ext, tq, p.k)
		} else {
			got, err = r.cached.Search(p.q, p.eps)
			plain, perr = r.shadow.Search(p.q, p.eps)
			want = oracle.Range(r.ext, tq, p.eps)
		}
		if err != nil || perr != nil {
			r.t.Fatalf("%s %v: cached %v, uncached %v", step, p, err, perr)
		}
		if !matchListsEq(plain, want) {
			r.t.Fatalf("%s %v: uncached engine gave %d matches, the oracle %d", step, p, len(plain), len(want))
		}
		if !matchListsEq(got, want) {
			r.t.Fatalf("%s %v: cached engine diverged over %d windows:\n got  %v\n want %v", step, p, r.cached.NumSubsequences(), got, want)
		}
	}
	after := r.cached.ServingStats().Result
	h, x, m := after.Hits-before.Hits, after.Extended-before.Extended, after.Misses-before.Misses
	if h != hits || x != extended || m != misses {
		r.t.Fatalf("%s: cache counted %d hits (%d extended), %d misses; want %d (%d), %d", step, h, x, m, hits, extended, misses)
	}
}

func TestAppendCarriesCache(t *testing.T) {
	const l = 16
	base := datasets.EEGN(91, 400) // 385 windows
	more := datasets.EEGN(92, 3*maxTailScan)
	layouts := []struct {
		name   string
		shards int
	}{{"1shard", 1}, {"4shards", 4}}

	for _, norm := range []NormMode{NormNone, NormGlobal, NormPerSubsequence} {
		for _, lay := range layouts {
			t.Run(fmt.Sprintf("%v/%s", norm, lay.name), func(t *testing.T) {
				r := newCarryRig(t, base, Options{L: l, Norm: norm, NormSet: true, Shards: lay.shards})
				// The query is the indexed window at 100: ε = 0 finds it
				// (and later its appended duplicate), and a moderate ε is
				// one a few dozen windows meet, whatever the value space.
				const dupAt = 100
				q := slices.Clone(base[dupAt : dupAt+l])
				moderate := oracle.TopK(r.ext, r.ext.TransformQuery(q), 30)[29].Dist
				r.probes = []carryProbe{
					{q: q, eps: 0}, {q: q, eps: moderate},
					{q: q, k: 1}, {q: q, k: 5},
					{q: q, k: 450}, // more than the 385 windows now, fewer than after the first appends
					{q: q, k: math.MaxInt},
				}
				n := uint64(len(r.probes))
				rest := more
				next := func(count int) []float64 {
					vals := rest[:count]
					rest = rest[count:]
					return vals
				}

				r.expect("cold", 0, 0, n)
				r.expect("warm", n, 0, 0)
				for _, size := range []int{1, l - 1, l, 3 * l} {
					r.append(next(size))
					r.expect(fmt.Sprintf("append %d", size), n, n, 0)
					r.expect(fmt.Sprintf("append %d, repeat", size), n, 0, 0)
				}
				if got := r.cached.NumSubsequences(); got <= 450 {
					t.Fatalf("%d windows: k=450 never became smaller than the window count", got)
				}

				// A duplicate of the query's own window: a second
				// distance-0 twin, which top-1 must lose to the earlier
				// start and ε = 0 must find. (Per-subsequence windows are
				// normalised from rolling sums, a few ulps off the query's
				// own normalisation, so there the two are merely close and
				// the oracle comparison above is the whole check.)
				r.append(q)
				r.expect("duplicate", n, n, 0)
				if norm != NormPerSubsequence {
					if ms, _ := r.cached.SearchTopK(q, 1); len(ms) != 1 || ms[0].Start != dupAt || ms[0].Dist != 0 {
						t.Fatalf("top-1 after the duplicate: %v, want start %d at distance 0", ms, dupAt)
					}
					dup := r.cached.NumSubsequences() - 1
					if ms, _ := r.cached.Search(q, 0); !slices.Equal(series.MatchStarts(ms), []int{dupAt, dup}) {
						t.Fatalf("ε=0 after the duplicate: %v, want windows %d and %d", ms, dupAt, dup)
					}
				}

				// Several appends without a lookup: the entry is many
				// versions behind, and still inside the tail bound.
				for _, size := range []int{1, l - 1, 3 * l, l, 1} {
					r.append(next(size))
				}
				r.expect("five appends behind", n, n, 0)
				r.expect("five appends behind, repeat", n, 0, 0)

				// Exactly the bound extends; one window more recomputes,
				// and the fresh answer replaces the old entry — so the
				// repeat is a plain hit, not a second recompute.
				r.append(next(maxTailScan))
				r.expect("tail bound", n, n, 0)
				r.append(next(maxTailScan + 1))
				r.expect("past the tail bound", 0, 0, n)
				r.expect("past the tail bound, repeat", n, 0, 0)
				r.append(next(1))
				r.expect("after the replacement", n, n, 0)
			})
		}
	}
}

// TestAppendCarriesCacheConstantSeries is the all-ties corner: on a
// constant series every window is at distance 0 from a constant query
// (under every normalization), so top-k is decided by start alone and
// every appended window joins the range answer.
func TestAppendCarriesCacheConstantSeries(t *testing.T) {
	const l = 8
	flat := func(n int) []float64 { return slices.Repeat([]float64{3}, n) }
	for _, norm := range []NormMode{NormNone, NormGlobal, NormPerSubsequence} {
		t.Run(fmt.Sprint(norm), func(t *testing.T) {
			r := newCarryRig(t, flat(40), Options{L: l, Norm: norm, NormSet: true})
			q := flat(l)
			r.probes = []carryProbe{{q: q, eps: 0}, {q: q, k: 3}, {q: q, k: 50}}
			n := uint64(len(r.probes))
			r.expect("cold", 0, 0, n)
			r.append(flat(5))
			r.expect("flat append", n, n, 0)
			if ms, _ := r.cached.Search(q, 0); len(ms) != r.cached.NumSubsequences() {
				t.Fatalf("ε=0 on a constant series: %d of %d windows", len(ms), r.cached.NumSubsequences())
			}
			r.append([]float64{4, 1, 5, 9, 2, 6, 5, 3, 5})
			r.expect("varied append", n, n, 0)
			r.append(flat(2 * l))
			r.expect("flat again", n, n, 0)
			if ms, _ := r.cached.SearchTopK(q, 3); !slices.Equal(series.MatchStarts(ms), []int{0, 1, 2}) {
				t.Fatalf("top-3 of all-tied windows: %v, want the three earliest starts", ms)
			}
		})
	}
}

// TestAppendInvalidatesEpochKeyedPaths is the other half of the
// contract: answers that cannot be extended — prefix searches — still
// miss after an Append.
func TestAppendInvalidatesEpochKeyedPaths(t *testing.T) {
	const l = 16
	data := datasets.EEGN(93, 600)
	e, err := Open(slices.Clone(data), Options{L: l, PlanCache: -1, ResultCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	q := data[200 : 200+l]
	round := func() (hits, extended, misses uint64) {
		t.Helper()
		before := e.ServingStats().Result
		if _, err := e.SearchShorterCtx(context.Background(), q[:l/2], 0.3); err != nil {
			t.Fatal(err)
		}
		after := e.ServingStats().Result
		return after.Hits - before.Hits, after.Extended - before.Extended, after.Misses - before.Misses
	}
	if h, x, m := round(); h != 0 || x != 0 || m != 1 {
		t.Fatalf("cold: %d hits, %d extended, %d misses", h, x, m)
	}
	if h, x, m := round(); h != 1 || x != 0 || m != 0 {
		t.Fatalf("warm: %d hits, %d extended, %d misses", h, x, m)
	}
	if err := e.Append(q...); err != nil {
		t.Fatal(err)
	}
	if h, x, m := round(); h != 0 || x != 0 || m != 1 {
		t.Fatalf("after Append: %d hits, %d extended, %d misses — an epoch-keyed answer crossed an append", h, x, m)
	}
}

// TestAppendCarriedTrace reads the three result-cache outcomes off a
// forced trace: a miss traverses, a hit does nothing, and the lookup
// after an Append says how many windows it verified in place of a
// traversal.
func TestAppendCarriedTrace(t *testing.T) {
	const l = 16
	data := datasets.EEGN(94, 600)
	e, err := Open(slices.Clone(data), Options{L: l, PlanCache: -1, ResultCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	q := data[200 : 200+l]
	traced := func() *obs.Span {
		t.Helper()
		tr := obs.NewTrace("test")
		if _, err := e.SearchTopKCtx(obs.WithSpan(context.Background(), tr.Root), q, 3); err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		return tr.Root
	}
	traversed := func(sp *obs.Span) bool {
		return slices.ContainsFunc(sp.Children, func(c *obs.Span) bool { return c.Name == "traverse" })
	}
	if sp := traced(); sp.Attrs["result_cache"] != "miss" || !traversed(sp) {
		t.Fatalf("cold: %v, traversed=%v", sp.Attrs, traversed(sp))
	}
	if sp := traced(); sp.Attrs["result_cache"] != "hit" || traversed(sp) {
		t.Fatalf("warm: %v, traversed=%v", sp.Attrs, traversed(sp))
	}
	if err := e.Append(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	sp := traced()
	if sp.Attrs["result_cache"] != "extended" || sp.Attrs["tail_windows"] != 3 || sp.Attrs["results"] != 3 || traversed(sp) {
		t.Fatalf("after Append: %v, traversed=%v", sp.Attrs, traversed(sp))
	}
	if sp := traced(); sp.Attrs["result_cache"] != "hit" {
		t.Fatalf("after the extension: %v", sp.Attrs)
	}
}

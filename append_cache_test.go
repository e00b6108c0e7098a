package twinsearch

// Append↔cache differential: a local TS-Index engine's cached answers —
// Search at full and at shorter length and SearchTopK alike — are not
// invalidated by Append but extended over the windows gained (see
// searchCached).
// Whatever the cache does —
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

// carryProbe is one cached request: a range search at eps, a top-k
// when k > 0, or a range search of the query's first half at eps when
// prefix is set.
type carryProbe struct {
	q      []float64
	eps    float64
	k      int
	prefix bool
}

func (p carryProbe) String() string {
	switch {
	case p.k > 0:
		return fmt.Sprintf("topk(k=%d)", p.k)
	case p.prefix:
		return fmt.Sprintf("prefix(len=%d, eps=%g)", len(p.q), p.eps)
	}
	return fmt.Sprintf("search(eps=%g)", p.eps)
}

// prefixProbes are the range searches of q's prefixes of lengths L/2
// and L−1 (one window exists only at that length), where the
// normalization admits them. At length L a prefix is the range probe
// itself.
func prefixProbes(q []float64, eps float64, norm NormMode) []carryProbe {
	if norm == NormPerSubsequence {
		return nil
	}
	return []carryProbe{{q: q[:len(q)/2], eps: eps, prefix: true}, {q: q[:len(q)-1], eps: eps, prefix: true}}
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
		switch {
		case p.k > 0:
			got, err = r.cached.SearchTopK(p.q, p.k)
			plain, perr = r.shadow.SearchTopK(p.q, p.k)
			want = oracle.TopK(r.ext, tq, p.k)
		case p.prefix:
			ctx := context.Background()
			got, err = r.cached.SearchCtx(ctx, p.q, p.eps)
			plain, perr = r.shadow.SearchCtx(ctx, p.q, p.eps)
			indexed, tail := oracle.Prefix(r.ext, r.cached.L(), tq, p.eps)
			want = append(indexed, tail...)
		default:
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
				r.probes = append(r.probes, prefixProbes(q, moderate, norm)...)
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
			r.probes = append([]carryProbe{{q: q, eps: 0}, {q: q, k: 3}, {q: q, k: 50}}, prefixProbes(q, 0, norm)...)
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

// TestAppendExtendsPrefixAnswers: a prefix answer is versioned like
// every other cached answer — a miss, then a hit; after an Append one
// extended hit, equal to an uncached engine's; and a miss again once
// an Append gains more than maxTailScan windows.
func TestAppendExtendsPrefixAnswers(t *testing.T) {
	const l = 16
	data := datasets.EEGN(93, 600)
	open := func(o Options) *Engine {
		e, err := Open(slices.Clone(data), o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	cached, plain := open(Options{L: l, ResultCacheBytes: -1}), open(Options{L: l})
	q := data[200 : 200+l]
	var last []Match
	round := func(step string, hits, extended, misses uint64) {
		t.Helper()
		before := cached.ServingStats().Result
		got, err := cached.SearchCtx(context.Background(), q[:l/2], 0.3)
		want, werr := plain.SearchCtx(context.Background(), q[:l/2], 0.3)
		if err != nil || werr != nil {
			t.Fatalf("%s: cached %v, uncached %v", step, err, werr)
		}
		if !matchListsEq(got, want) {
			t.Fatalf("%s: cached engine diverged:\n got  %v\n want %v", step, got, want)
		}
		after := cached.ServingStats().Result
		if h, x, m := after.Hits-before.Hits, after.Extended-before.Extended, after.Misses-before.Misses; h != hits || x != extended || m != misses {
			t.Fatalf("%s: %d hits (%d extended), %d misses; want %d (%d), %d", step, h, x, m, hits, extended, misses)
		}
		last = got
	}
	appendBoth := func(vals []float64) {
		t.Helper()
		for _, e := range []*Engine{cached, plain} {
			if err := e.Append(vals...); err != nil {
				t.Fatal(err)
			}
		}
	}
	round("cold", 0, 0, 1)
	round("warm", 1, 0, 0)
	warm := len(last)
	appendBoth(q)
	round("after Append", 1, 1, 0)
	if len(last) <= warm {
		t.Fatalf("after appending the query: %d twins, %d before", len(last), warm)
	}
	appendBoth(datasets.EEGN(95, maxTailScan+1))
	round("past the tail bound", 0, 0, 1)
}

// TestAppendCarriedTrace reads the three result-cache outcomes off a
// forced trace: a miss traverses, a hit does nothing, and the lookup
// after an Append says how many windows it verified in place of a
// traversal.
func TestAppendCarriedTrace(t *testing.T) {
	const l = 16
	data := datasets.EEGN(94, 600)
	e, err := Open(slices.Clone(data), Options{L: l, ResultCacheBytes: -1})
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

// TestTailBookedOnEveryPath reads the tail step off forced traces after
// an Append, on one shard and on four: a range miss, a top-k miss, an
// extended range hit and an extended top-k hit each verify the windows
// no arena or cached answer covers, and each books them — the span
// that carries tail_windows has a "tail" child whose candidates are
// exactly those windows.
func TestTailBookedOnEveryPath(t *testing.T) {
	const l, gained = 16, 40
	data := datasets.EEGN(95, 800)
	for _, shards := range []int{0, 4} {
		e, err := Open(slices.Clone(data[:800-gained]), Options{L: l, Shards: shards, ResultCacheBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		cachedQ, freshQ := data[100:100+l], data[300:300+l]
		traced := func(what string, q []float64, k int, outcome string) {
			t.Helper()
			tr := obs.NewTrace("test")
			ctx := obs.WithSpan(context.Background(), tr.Root)
			if k > 0 {
				_, err = e.SearchTopKCtx(ctx, q, k)
			} else {
				_, err = e.SearchCtx(ctx, q, 0.5)
			}
			if err != nil {
				t.Fatal(err)
			}
			tr.Finish()
			if outcome == "" {
				return
			}
			if got := tr.Root.Attrs["result_cache"]; got != outcome {
				t.Fatalf("shards=%d %s: result_cache %v, want %s", shards, what, got, outcome)
			}
			var booked []*obs.Span
			var walk func(s *obs.Span)
			walk = func(s *obs.Span) {
				if _, ok := s.Attrs["tail_windows"]; ok {
					booked = append(booked, s)
				}
				for _, c := range s.Children {
					walk(c)
				}
			}
			walk(tr.Root)
			if len(booked) != 1 || booked[0].Attrs["tail_windows"] != gained {
				t.Fatalf("shards=%d %s: tail_windows on %d spans, want %d on one", shards, what, len(booked), gained)
			}
			i := slices.IndexFunc(booked[0].Children, func(c *obs.Span) bool { return c.Name == "tail" })
			if i < 0 {
				t.Fatalf("shards=%d %s: %d tail windows and no tail child", shards, what, gained)
			}
			if tail := booked[0].Children[i]; tail.Attrs["candidates"] != gained {
				t.Fatalf("shards=%d %s: tail child %v, want candidates=%d", shards, what, tail.Attrs, gained)
			}
		}
		traced("warm range", cachedQ, 0, "")
		traced("warm top-k", cachedQ, 5, "")
		if err := e.Append(data[800-gained:]...); err != nil {
			t.Fatal(err)
		}
		traced("range miss", freshQ, 0, "miss")
		traced("top-k miss", freshQ, 5, "miss")
		traced("extended range hit", cachedQ, 0, "extended")
		traced("extended top-k hit", cachedQ, 5, "extended")
	}
}

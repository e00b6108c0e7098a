package qcache

import (
	"math"
	"sync"
	"testing"

	"twinsearch/internal/series"
)

func TestResultKeyBitExact(t *testing.T) {
	key := func(q ...float64) string { return ResultKey(PathSearch, 0, 0.5, 0, q) }
	if key(1, 2, 3) != key(1, 2, 3) {
		t.Fatal("identical queries must share a key")
	}
	// -0 and +0 compare equal as floats but are different queries only
	// if their bits differ — the key is bit-exact, so they must not
	// alias... and they don't: Float64bits distinguishes them. A cache
	// keyed on bits can only cost a miss, never a wrong answer.
	if key(0) == key(math.Copysign(0, -1)) {
		t.Fatal("key must be bit-exact, -0 != +0")
	}
	if key(1, 2) == key(2, 1) {
		t.Fatal("order matters")
	}
}

func TestResultKeyNamespaces(t *testing.T) {
	q := []float64{1, 2, 3}
	base := ResultKey(PathSearch, 0, 0.5, 0, q)
	for name, other := range map[string]string{
		"path":  ResultKey(PathTopK, 0, 0.5, 0, q),
		"epoch": ResultKey(PathSearch, 1, 0.5, 0, q),
		"param": ResultKey(PathSearch, 0, 0.25, 0, q),
		"aux":   ResultKey(PathSearch, 0, 0.5, 64, q),
		"query": ResultKey(PathSearch, 0, 0.5, 0, []float64{1, 2, 4}),
	} {
		if other == base {
			t.Fatalf("%s must separate result keys", name)
		}
	}
}

// TestStripesSpread: keys that differ only in high bits of one word —
// integral values, whose low mantissa bits are all zero, and eps
// steps — still reach every stripe.
func TestStripesSpread(t *testing.T) {
	for name, key := range map[string]func(i int) string{
		"query": func(i int) string { return ResultKey(PathSearch, 0, 0.5, 0, []float64{float64(i), 1, 2}) },
		"eps":   func(i int) string { return ResultKey(PathSearch, 0, float64(i)/8, 0, []float64{1, 2, 3}) },
	} {
		var hit [stripeCount]int
		for i := 0; i < 64*stripeCount; i++ {
			hit[stripeOf(key(i))]++
		}
		for s, n := range hit {
			if n < 32 { // half the even share
				t.Errorf("%s: stripe %d got %d of %d keys: %v", name, s, n, 64*stripeCount, hit)
				break
			}
		}
	}
}

func TestResultCacheByteBoundAndEviction(t *testing.T) {
	// Budget fits roughly two entries per stripe; inserting three on
	// one stripe must evict the least recently used.
	q := []float64{1, 2, 3, 4}
	key := func(eps float64) string { return ResultKey(PathSearch, 0, eps, 0, q) }
	one := Result{Matches: []series.Match{{Start: 1, Dist: -1}}}
	per := entryBytes(key(0), one)
	c := NewResult(per * 2 * stripeCount)

	// Three keys on one stripe.
	var keys []string
	target := stripeOf(key(0.0))
	for eps := 0.0; len(keys) < 3; eps += 0.001 {
		if stripeOf(key(eps)) == target {
			keys = append(keys, key(eps))
		}
	}
	c.Put(keys[0], one)
	c.Put(keys[1], one)
	if _, ok := c.Get(keys[0]); !ok { // refresh 0 so 1 is LRU
		t.Fatal("keys[0] must be cached")
	}
	c.Put(keys[2], one)
	if _, ok := c.Get(keys[1]); ok {
		t.Fatal("LRU entry keys[1] should have been evicted")
	}
	if _, ok := c.Get(keys[0]); !ok {
		t.Fatal("recently used keys[0] must survive")
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("expected evictions: %+v", st)
	}
	if st.Bytes > 2*per*stripeCount {
		t.Fatalf("byte accounting exceeds budget: %+v", st)
	}
}

func TestResultCacheOversizedEntryRejected(t *testing.T) {
	c := NewResult(stripeCount * 256)
	big := Result{Matches: make([]series.Match, 10000)}
	k := ResultKey(PathSearch, 0, 1, 0, []float64{1})
	c.Put(k, big)
	if _, ok := c.Get(k); ok {
		t.Fatal("an entry larger than a stripe budget must not be stored")
	}
	if st := c.Stats(); st.Bytes != 0 || st.Entries != 0 {
		t.Fatalf("rejected entry left residue: %+v", st)
	}
}

// liveBytes recomputes what Stats.Bytes claims to be: the sum of
// entryBytes over the entries the stripes hold.
func liveBytes(c *ResultCache) (bytes, entries int) {
	for i := range c.stripes {
		s := &c.stripes[i]
		for el := s.ll.Front(); el != nil; el = el.Next() {
			e := el.Value.(*resultEntry)
			bytes += entryBytes(e.key, e.val)
			entries++
		}
		if s.ll.Len() != len(s.m) {
			panic("stripe list and map disagree")
		}
	}
	return bytes, entries
}

func checkBytes(t *testing.T, c *ResultCache, step string) {
	t.Helper()
	st := c.Stats()
	bytes, entries := liveBytes(c)
	if st.Bytes != bytes || st.Entries != entries || st.Bytes < 0 {
		t.Fatalf("%s: Stats says %d bytes in %d entries, the stripes hold %d in %d", step, st.Bytes, st.Entries, bytes, entries)
	}
}

// TestResultCacheVersionedEntries walks one key through the life of a
// version-in-entry answer: found current, found behind and extended,
// found too far behind, replaced only by an answer covering more
// windows, and dropped once the extended answer outgrows the budget.
func TestResultCacheVersionedEntries(t *testing.T) {
	k := ResultKey(PathSearch, 0, 0.5, 0, []float64{1, 2})
	matches := func(n int) []series.Match {
		ms := make([]series.Match, n)
		for i := range ms {
			ms[i] = series.Match{Start: i, Dist: -1}
		}
		return ms
	}
	budget := entryBytes(k, Result{Matches: matches(8)})
	c := NewResult(budget * stripeCount)

	c.Put(k, Result{Matches: matches(2), Windows: 100})
	checkBytes(t, c, "first put")
	if r, ok := c.GetCovering(k, 100, 10); !ok || r.Windows != 100 || len(r.Matches) != 2 {
		t.Fatalf("current entry: %+v %v", r, ok)
	}
	if r, ok := c.GetCovering(k, 110, 10); !ok || r.Windows != 100 {
		t.Fatalf("entry 10 windows behind with 10 allowed: %+v %v", r, ok)
	}
	if _, ok := c.GetCovering(k, 111, 10); ok {
		t.Fatal("entry 11 windows behind with 10 allowed must miss")
	}
	if st := c.Stats(); st.Hits != 2 || st.Extended != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("counters: %+v", st)
	}

	// A racing fill at the same version, and a late one at an older
	// version, leave the incumbent alone.
	c.Put(k, Result{Matches: matches(5), Windows: 100})
	c.Put(k, Result{Matches: matches(5), Windows: 90})
	if r, _ := c.Get(k); r.Windows != 100 || len(r.Matches) != 2 {
		t.Fatalf("incumbent replaced by an answer covering no more: %+v", r)
	}
	checkBytes(t, c, "refused puts")

	// More windows replaces in place; shrinking matches (top-k can only
	// keep its length, but the accounting must not assume growth).
	c.Put(k, Result{Matches: matches(6), Windows: 120})
	checkBytes(t, c, "replace, larger")
	c.Put(k, Result{Matches: matches(1), Windows: 130})
	checkBytes(t, c, "replace, smaller")
	if r, _ := c.Get(k); r.Windows != 130 || len(r.Matches) != 1 {
		t.Fatalf("longer answer did not replace the incumbent: %+v", r)
	}

	// An extended answer over the stripe budget takes the incumbent
	// with it instead of leaving it to be re-extended for ever.
	c.Put(k, Result{Matches: matches(9), Windows: 140})
	checkBytes(t, c, "drop")
	if _, ok := c.Get(k); ok {
		t.Fatal("incumbent survived an extension that no longer fits")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Evictions != 1 {
		t.Fatalf("after the drop: %+v", st)
	}
}

// TestResultCacheReplaceEvictsOthers grows one entry until its stripe
// is over budget: the least recently used neighbours go, the grown
// entry stays, and the byte count follows every step.
func TestResultCacheReplaceEvictsOthers(t *testing.T) {
	q := []float64{1, 2, 3, 4}
	key := func(eps float64) string { return ResultKey(PathSearch, 0, eps, 0, q) }
	one := Result{Matches: make([]series.Match, 1), Windows: 10}
	per := entryBytes(key(0), one)
	c := NewResult(per * 3 * stripeCount)
	var keys []string
	for eps := 0.0; len(keys) < 3; eps += 0.001 {
		if stripeOf(key(eps)) == stripeOf(key(0)) {
			keys = append(keys, key(eps))
		}
	}
	for _, k := range keys {
		c.Put(k, one)
	}
	checkBytes(t, c, "fill")
	// keys[0] is the LRU entry; grown to two entries' worth it must push
	// out keys[1], the next oldest, and survive itself.
	c.Put(keys[0], Result{Matches: make([]series.Match, 1+per/matchBytes), Windows: 11})
	checkBytes(t, c, "grow")
	if _, ok := c.Get(keys[0]); !ok {
		t.Fatal("the replaced entry was evicted by its own growth")
	}
	if _, ok := c.Get(keys[1]); ok {
		t.Fatal("the least recently used neighbour survived")
	}
	if _, ok := c.Get(keys[2]); !ok {
		t.Fatal("the most recently used neighbour was evicted")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Bytes > per*3 {
		t.Fatalf("after growth: %+v", st)
	}
}

func TestResultCacheCopiesOnGetAndPut(t *testing.T) {
	c := NewResult(1 << 20)
	src := []series.Match{{Start: 1, Dist: 0.5}, {Start: 2, Dist: 0.7}}
	k := ResultKey(PathTopK, 0, 2, 0, []float64{9})
	c.Put(k, Result{Matches: src, Windows: 7})
	src[0].Start = 999 // caller mutates its slice after Put

	got, ok := c.Get(k)
	if !ok || got.Matches[0].Start != 1 {
		t.Fatalf("Put must snapshot the matches: %+v ok=%v", got, ok)
	}
	if got.Windows != 7 {
		t.Fatalf("the window count must round-trip: %+v", got)
	}
	got.Matches[1].Start = 888 // caller mutates the returned slice

	again, _ := c.Get(k)
	if again.Matches[1].Start != 2 {
		t.Fatal("Get must return an independent copy")
	}
}

func TestResultCachePreservesNilMatches(t *testing.T) {
	c := NewResult(1 << 16)
	k := ResultKey(PathSearch, 0, 0.1, 0, []float64{5})
	c.Put(k, Result{Matches: nil})
	got, ok := c.Get(k)
	if !ok {
		t.Fatal("empty answers are cacheable")
	}
	if got.Matches != nil {
		t.Fatal("a nil match set must round-trip as nil (byte-identical to a fresh miss-free traversal)")
	}
}

// TestConcurrentHammer drives the cache from many goroutines with
// overlapping keys under -race and asserts the counters reconcile:
// every Get is either a hit or a miss, and occupancy never exceeds the
// configured bound.
func TestConcurrentHammer(t *testing.T) {
	rc := NewResult(64 << 10)
	const goroutines = 8
	const ops = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				q := []float64{float64(i % 97), float64(g % 3)}
				rk := ResultKey(PathSearch, 0, float64(i%5), 0, q)
				if _, ok := rc.Get(rk); !ok {
					rc.Put(rk, Result{Matches: []series.Match{{Start: i, Dist: -1}}})
				}
			}
		}(g)
	}
	wg.Wait()
	st := rc.Stats()
	if st.Hits+st.Misses != goroutines*ops {
		t.Fatalf("hits %d + misses %d != %d gets", st.Hits, st.Misses, goroutines*ops)
	}
	if st.Bytes > 64<<10 {
		t.Fatalf("result cache exceeded its byte budget: %+v", st)
	}
}

func BenchmarkResultCacheHit(b *testing.B) {
	c := NewResult(1 << 20)
	q := make([]float64, 100)
	for i := range q {
		q[i] = float64(i)
	}
	k := ResultKey(PathSearch, 0, 0.3, 0, q)
	c.Put(k, Result{Matches: []series.Match{{Start: 1, Dist: -1}, {Start: 7, Dist: -1}}})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := ResultKey(PathSearch, 0, 0.3, 0, q)
		if _, ok := c.Get(key); !ok {
			b.Fatal("must hit")
		}
	}
}

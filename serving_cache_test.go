package twinsearch

// Serving-cache tests at the engine layer: an answer cached before an
// Append is never served after it as it stood, and under concurrent
// appends no reader sees a stale answer. That every cached answer —
// the miss and the hit — is the fresh one on every path, norm and
// backing is TestConformance's.

import (
	"sync"
	"testing"

	"twinsearch/internal/datasets"
)

// withServingCaches enables both caches at their default sizes.
func withServingCaches(o *Options) {
	o.PlanCache = -1
	o.ResultCacheBytes = -1
}

// TestServingCacheAppendInvalidation is the /append↔cache regression
// at the engine layer: a result cached before Append must never be
// served after it as it stood — the next call brings it up to date
// over the windows gained and matches a fresh engine over the
// extended series. (TestAppendCarriesCache covers the mechanism.)
func TestServingCacheAppendInvalidation(t *testing.T) {
	ts := datasets.EEGN(47, 3000)
	const l = 64
	q := datasets.Queries(ts, 53, 1, l)[0]
	const eps = 0.4

	ce, err := Open(ts, Options{L: l, PlanCache: -1, ResultCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ce.Close()

	before, err := ce.Search(q, eps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ce.Search(q, eps); err != nil { // cache the answer
		t.Fatal(err)
	}
	epochBefore := ce.Epoch()

	// Append the query itself: the extended series must gain at least
	// one new exact twin, so a stale cached answer is detectable.
	if err := ce.Append(q...); err != nil {
		t.Fatal(err)
	}
	if ce.Epoch() == epochBefore {
		t.Fatalf("Append did not bump the epoch (still %d)", epochBefore)
	}

	after, err := ce.Search(q, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) <= len(before) {
		t.Fatalf("post-append search returned %d matches (≤ pre-append %d): stale cached result",
			len(after), len(before))
	}
	extended := append(append([]float64{}, ts...), q...)
	fresh, err := Open(extended, Options{L: l})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	want, err := fresh.Search(q, eps)
	if err != nil {
		t.Fatal(err)
	}
	if !matchListsEq(after, want) {
		t.Fatalf("post-append cached-engine answer diverged from a fresh engine: %d vs %d matches",
			len(after), len(want))
	}
}

// TestServingCacheConcurrentHammer drives the result cache from many
// goroutines with interleaved Appends under the same reader/writer
// discipline the HTTP server enforces (searches share an RLock, Append
// takes the write lock). Every observed (epoch, answer) pair must
// match the answer an uncached shadow engine gave at that epoch — no
// reader may see a pre-append answer tagged with a post-append epoch —
// and the cache counters must account for every lookup.
func TestServingCacheConcurrentHammer(t *testing.T) {
	ts := datasets.EEGN(59, 2000)
	const l = 64
	q := datasets.Queries(ts, 61, 1, l)[0]
	const eps, appends, readers, readsPer = 0.4, 8, 8, 60

	ce, err := Open(ts, Options{L: l, PlanCache: -1, ResultCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ce.Close()
	shadow, err := Open(ts, Options{L: l})
	if err != nil {
		t.Fatal(err)
	}
	defer shadow.Close()

	// wantAt[epoch] is the shadow engine's answer while the cached
	// engine was at that epoch; filled under the write lock so it is
	// complete before any reader can observe the epoch.
	var mu sync.RWMutex
	wantAt := map[uint64][]Match{}
	record := func() {
		ms, err := shadow.Search(q, eps)
		if err != nil {
			t.Error(err)
			return
		}
		wantAt[ce.Epoch()] = ms
	}
	mu.Lock()
	record()
	mu.Unlock()

	type obs struct {
		epoch uint64
		ms    []Match
	}
	results := make([][]obs, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < readsPer; i++ {
				mu.RLock()
				epoch := ce.Epoch()
				ms, err := ce.Search(q, eps)
				mu.RUnlock()
				if err != nil {
					t.Error(err)
					return
				}
				results[g] = append(results[g], obs{epoch, ms})
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			mu.Lock()
			if err := ce.Append(q[:8]...); err != nil {
				t.Error(err)
			} else if err := shadow.Append(q[:8]...); err != nil {
				t.Error(err)
			} else {
				record()
			}
			mu.Unlock()
		}
	}()
	wg.Wait()

	total := 0
	for g := range results {
		for _, o := range results[g] {
			total++
			want, ok := wantAt[o.epoch]
			if !ok {
				t.Fatalf("reader observed unknown epoch %d", o.epoch)
			}
			if !matchListsEq(o.ms, want) {
				t.Fatalf("epoch %d: cached answer diverged from the shadow engine (%d vs %d matches): stale result",
					o.epoch, len(o.ms), len(want))
			}
		}
	}
	st := ce.ServingStats()
	if got := st.Result.Hits + st.Result.Misses; got != uint64(total) {
		t.Fatalf("cache counters inconsistent: %d hits + %d misses != %d lookups",
			st.Result.Hits, st.Result.Misses, total)
	}
	if st.Result.Hits == 0 {
		t.Fatal("hammer never hit the cache")
	}
}

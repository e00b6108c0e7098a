package twinsearch

// Serving-cache differential tests: with the plan and result caches
// enabled, every answer — the miss that fills the cache and the hit
// served from it — must be byte-identical (Start and the exact Dist
// bit pattern, order included) to the answer an uncached engine
// computes fresh, on every search path (Search, SearchStats,
// SearchTopK, SearchShorter, SearchApprox), every normalization mode,
// and every engine kind the parity suite covers. The one carve-out is
// approximate search on sharded engines, where the probed subset is
// scheduling-dependent: there the contract is that the cache
// reproduces one valid traversal, so hits must be identical to the
// miss that cached them, not to an independent fresh call.

import (
	"fmt"
	"sync"
	"testing"

	"twinsearch/internal/datasets"
)

// withServingCaches enables both caches at their default sizes.
func withServingCaches(o *Options) {
	o.PlanCache = -1
	o.ResultCacheBytes = -1
}

func TestServingCacheDifferential(t *testing.T) {
	ts := datasets.InsectN(41, 5000)
	const l = 64
	queries := datasets.Queries(ts, 43, 4, l)
	const eps, approxBudget = 0.5, 8
	const topK = 5

	for _, norm := range []NormMode{NormNone, NormGlobal, NormPerSubsequence} {
		t.Run(fmt.Sprint(norm), func(t *testing.T) {
			plain := parityEngines(t, ts, l, norm)
			cached := parityEnginesMod(t, ts, l, norm, withServingCaches)
			for name, ce := range cached {
				pe := plain[name]
				sharded := name != "unsharded" && name != "mmap"
				for qi, q := range queries {
					// Search: fresh vs miss vs hit.
					want, err := pe.Search(q, eps)
					if err != nil {
						t.Fatalf("%s q%d: plain Search: %v", name, qi, err)
					}
					miss, err := ce.Search(q, eps)
					if err != nil {
						t.Fatalf("%s q%d: cached Search (miss): %v", name, qi, err)
					}
					hit, err := ce.Search(q, eps)
					if err != nil {
						t.Fatalf("%s q%d: cached Search (hit): %v", name, qi, err)
					}
					if !matchListsEq(want, miss) || !matchListsEq(want, hit) {
						t.Fatalf("%s q%d: Search diverged: plain %d, miss %d, hit %d matches",
							name, qi, len(want), len(miss), len(hit))
					}

					// SearchStats: matches and traversal counters both cached.
					wantMs, _, err := pe.SearchStats(q, eps)
					if err != nil {
						t.Fatalf("%s q%d: plain SearchStats: %v", name, qi, err)
					}
					missMs, missSt, err := ce.SearchStats(q, eps)
					if err != nil {
						t.Fatalf("%s q%d: cached SearchStats (miss): %v", name, qi, err)
					}
					hitMs, hitSt, err := ce.SearchStats(q, eps)
					if err != nil {
						t.Fatalf("%s q%d: cached SearchStats (hit): %v", name, qi, err)
					}
					if !matchListsEq(wantMs, missMs) || !matchListsEq(wantMs, hitMs) {
						t.Fatalf("%s q%d: SearchStats matches diverged", name, qi)
					}
					if hitSt != missSt {
						t.Fatalf("%s q%d: SearchStats stats not reproduced by hit: miss %+v, hit %+v",
							name, qi, missSt, hitSt)
					}

					// SearchTopK.
					wantK, err := pe.SearchTopK(q, topK)
					if err != nil {
						t.Fatalf("%s q%d: plain SearchTopK: %v", name, qi, err)
					}
					missK, err := ce.SearchTopK(q, topK)
					if err != nil {
						t.Fatalf("%s q%d: cached SearchTopK (miss): %v", name, qi, err)
					}
					hitK, err := ce.SearchTopK(q, topK)
					if err != nil {
						t.Fatalf("%s q%d: cached SearchTopK (hit): %v", name, qi, err)
					}
					if !matchListsEq(wantK, missK) || !matchListsEq(wantK, hitK) {
						t.Fatalf("%s q%d: SearchTopK diverged", name, qi)
					}

					// SearchShorter: prefix queries are unsound under
					// per-subsequence normalization (each length renormalizes).
					if norm != NormPerSubsequence {
						short := q[:l/2]
						wantP, err := pe.SearchShorter(short, eps)
						if err != nil {
							t.Fatalf("%s q%d: plain SearchShorter: %v", name, qi, err)
						}
						missP, err := ce.SearchShorter(short, eps)
						if err != nil {
							t.Fatalf("%s q%d: cached SearchShorter (miss): %v", name, qi, err)
						}
						hitP, err := ce.SearchShorter(short, eps)
						if err != nil {
							t.Fatalf("%s q%d: cached SearchShorter (hit): %v", name, qi, err)
						}
						if !matchListsEq(wantP, missP) || !matchListsEq(wantP, hitP) {
							t.Fatalf("%s q%d: SearchShorter diverged", name, qi)
						}
					}

					// SearchApprox: on sharded engines the fresh subset is
					// scheduling-dependent, so the plain comparison only
					// holds unsharded; the hit must always replay the miss.
					missA, err := ce.SearchApprox(q, eps, approxBudget)
					if err != nil {
						t.Fatalf("%s q%d: cached SearchApprox (miss): %v", name, qi, err)
					}
					hitA, err := ce.SearchApprox(q, eps, approxBudget)
					if err != nil {
						t.Fatalf("%s q%d: cached SearchApprox (hit): %v", name, qi, err)
					}
					if !matchListsEq(missA, hitA) {
						t.Fatalf("%s q%d: SearchApprox hit did not replay the cached miss", name, qi)
					}
					if !sharded {
						wantA, err := pe.SearchApprox(q, eps, approxBudget)
						if err != nil {
							t.Fatalf("%s q%d: plain SearchApprox: %v", name, qi, err)
						}
						if !matchListsEq(wantA, missA) {
							t.Fatalf("%s q%d: SearchApprox diverged from plain", name, qi)
						}
					}
				}
				st := ce.ServingStats()
				if st.Result.Hits == 0 || st.Result.Misses == 0 {
					t.Fatalf("%s: result cache never exercised: %+v", name, st.Result)
				}
			}
		})
	}
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

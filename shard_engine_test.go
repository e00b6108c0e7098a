package twinsearch

// Differential tests for the sharded TS-Index path: Options.Shards must
// never change an answer, only the concurrency of producing it.

import (
	"bytes"
	"math"
	"runtime"
	"sync"
	"testing"

	"twinsearch/internal/datasets"
)

func assertSameMatches(t *testing.T, ctx string, got, want []Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: match %d = %+v, want %+v", ctx, i, got[i], want[i])
		}
	}
}

// TestShardedEngineParity checks Search, SearchTopK, SearchShorter and
// SearchBatch return byte-identical results with and without sharding,
// across every normalization mode.
func TestShardedEngineParity(t *testing.T) {
	ts := datasets.EEGN(41, 12000)
	queries := datasets.Queries(ts, 13, 6, 100)
	for _, norm := range []NormMode{NormNone, NormGlobal, NormPerSubsequence} {
		single, err := Open(ts, Options{L: 100, Norm: norm, NormSet: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 5} {
			sharded, err := Open(ts, Options{L: 100, Norm: norm, NormSet: true, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if sharded.Shards() != shards {
				t.Fatalf("Shards() = %d, want %d", sharded.Shards(), shards)
			}
			for _, q := range queries {
				for _, eps := range []float64{0.05, 0.3, 0.8} {
					want, err := single.Search(q, eps)
					if err != nil {
						t.Fatal(err)
					}
					got, err := sharded.Search(q, eps)
					if err != nil {
						t.Fatal(err)
					}
					assertSameMatches(t, "Search", got, want)
				}
				for _, k := range []int{1, 7, 50} {
					want, err := single.SearchTopK(q, k)
					if err != nil {
						t.Fatal(err)
					}
					got, err := sharded.SearchTopK(q, k)
					if err != nil {
						t.Fatal(err)
					}
					assertSameMatches(t, "SearchTopK", got, want)
				}
				if norm != NormPerSubsequence {
					want, err := single.SearchShorter(q[:40], 0.3)
					if err != nil {
						t.Fatal(err)
					}
					got, err := sharded.SearchShorter(q[:40], 0.3)
					if err != nil {
						t.Fatal(err)
					}
					assertSameMatches(t, "SearchShorter", got, want)
				}
			}
			wantBatch := single.SearchBatch(queries, 0.4)
			gotBatch := sharded.SearchBatch(queries, 0.4)
			for i := range wantBatch {
				if gotBatch[i].Err != nil || wantBatch[i].Err != nil {
					t.Fatalf("batch query %d errored: %v / %v", i, gotBatch[i].Err, wantBatch[i].Err)
				}
				assertSameMatches(t, "SearchBatch", gotBatch[i].Matches, wantBatch[i].Matches)
			}
		}
	}
}

// TestShardedAutoAndValidation covers the Shards knob's edge values.
func TestShardedAutoAndValidation(t *testing.T) {
	ts := datasets.RandomWalk(3, 4000)

	auto, err := Open(ts, Options{L: 100, Shards: -1})
	if err != nil {
		t.Fatal(err)
	}
	wantShards := runtime.GOMAXPROCS(0)
	if w := auto.NumSubsequences(); wantShards > w {
		wantShards = w
	}
	if wantShards > 1 && auto.Shards() != wantShards {
		t.Fatalf("auto sharding built %d shards, want %d", auto.Shards(), wantShards)
	}

	// Shards: 1 and 0 both keep the single-index path.
	for _, s := range []int{0, 1} {
		eng, err := Open(ts, Options{L: 100, Shards: s})
		if err != nil {
			t.Fatal(err)
		}
		if eng.Shards() != 1 {
			t.Fatalf("Shards=%d built %d partitions", s, eng.Shards())
		}
	}
}

// TestShardedPersistence round-trips a sharded engine through
// SaveIndex/OpenSaved and checks the format is self-describing: a
// sharded stream reopens sharded even when the options don't ask for
// shards, and vice versa.
func TestShardedPersistence(t *testing.T) {
	ts := datasets.EEGN(51, 9000)
	sharded, err := Open(ts, Options{L: 100, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if err := sharded.SaveIndex(&blob); err != nil {
		t.Fatal(err)
	}

	// Reopen with no Shards in the options: stream wins.
	re, err := OpenSaved(ts, bytes.NewReader(blob.Bytes()), Options{L: 100})
	if err != nil {
		t.Fatal(err)
	}
	if re.Shards() != 3 {
		t.Fatalf("reloaded engine has %d shards, want 3", re.Shards())
	}
	q := append([]float64(nil), ts[4000:4100]...)
	want, _ := sharded.Search(q, 0.3)
	got, _ := re.Search(q, 0.3)
	assertSameMatches(t, "reloaded sharded search", got, want)
	wantK, _ := sharded.SearchTopK(q, 5)
	gotK, _ := re.SearchTopK(q, 5)
	assertSameMatches(t, "reloaded sharded top-k", gotK, wantK)

	// A single-index stream still reopens unsharded.
	single, err := Open(ts, Options{L: 100})
	if err != nil {
		t.Fatal(err)
	}
	blob.Reset()
	if err := single.SaveIndex(&blob); err != nil {
		t.Fatal(err)
	}
	re, err = OpenSaved(ts, &blob, Options{L: 100, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if re.Shards() != 1 {
		t.Fatalf("single-index stream reopened with %d shards", re.Shards())
	}

	// Wrong L against a sharded stream is caught.
	blob.Reset()
	if err := sharded.SaveIndex(&blob); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSaved(ts, &blob, Options{L: 60}); err == nil {
		t.Fatal("want L mismatch error for sharded stream")
	}
}

// TestShardedAppend streams values into a sharded engine and compares
// against a fresh sharded build and an unsharded engine.
func TestShardedAppend(t *testing.T) {
	full := datasets.EEGN(61, 6000)
	grown, err := Open(append([]float64(nil), full[:4500]...), Options{L: 100, Norm: NormNone, NormSet: true, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for at := 4500; at < len(full); {
		end := at + 1 + (at % 321)
		if end > len(full) {
			end = len(full)
		}
		if err := grown.Append(full[at:end]...); err != nil {
			t.Fatal(err)
		}
		at = end
	}
	single, err := Open(full, Options{L: 100, Norm: NormNone, NormSet: true})
	if err != nil {
		t.Fatal(err)
	}
	if grown.NumSubsequences() != single.NumSubsequences() {
		t.Fatalf("%d vs %d windows", grown.NumSubsequences(), single.NumSubsequences())
	}
	for _, p := range []int{100, 4450, 5900} {
		q := append([]float64(nil), full[p:p+100]...)
		want, _ := single.Search(q, 0.4)
		got, _ := grown.Search(q, 0.4)
		assertSameMatches(t, "post-append search", got, want)
	}
}

// TestShardedConcurrentUse runs concurrent sharded builds and searches;
// under -race this guards the whole fan-out stack through the public
// API.
func TestShardedConcurrentUse(t *testing.T) {
	ts := datasets.InsectN(71, 15000)
	queries := datasets.Queries(ts, 5, 8, 100)

	var wg sync.WaitGroup
	engines := make([]*Engine, 3)
	errs := make([]error, 3)
	for i := range engines {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			engines[i], errs[i] = Open(ts, Options{L: 100, Shards: 4})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	want, err := engines[0].Search(queries[0], 0.4)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			eng := engines[g%len(engines)]
			for _, q := range queries {
				if _, err := eng.Search(q, 0.4); err != nil {
					t.Error(err)
					return
				}
				if _, err := eng.SearchTopK(q, 5); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	got, err := engines[1].Search(queries[0], 0.4)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMatches(t, "concurrent sharded search", got, want)
}

// TestSearchPreparedRejectsBadEps is the regression test for the
// NaN-threshold validation hole: SearchPrepared used to perform no eps
// validation at all, so eps = NaN sailed through (NaN < 0 is false) and
// made every window a "match" via poisoned early-abandoning.
func TestSearchPreparedRejectsBadEps(t *testing.T) {
	ts := datasets.RandomWalk(7, 2000)
	for _, shards := range bothShapes {
		eng, err := Open(ts, Options{L: 50, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		q := eng.PrepareQuery(ts[100:150])
		if _, err := eng.SearchPrepared(q, math.NaN()); err == nil {
			t.Fatalf("%d shards: SearchPrepared accepted NaN threshold", shards)
		}
		if _, err := eng.SearchPrepared(q, -0.5); err == nil {
			t.Fatalf("%d shards: SearchPrepared accepted negative threshold", shards)
		}
		if _, err := eng.SearchPrepared(q, 0.3); err != nil {
			t.Fatalf("%d shards: valid threshold rejected: %v", shards, err)
		}
	}
}

// TestSearchShorterRejectsNaNEps: SearchShorter checked only eps < 0,
// which NaN passes; SearchApprox checked nothing at all.
func TestSearchShorterRejectsNaNEps(t *testing.T) {
	ts := datasets.RandomWalk(9, 2000)
	for _, shards := range []int{0, 3} {
		eng, err := Open(ts, Options{L: 50, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.SearchShorter(ts[10:40], math.NaN()); err == nil {
			t.Fatalf("shards=%d: SearchShorter accepted NaN threshold", shards)
		}
		if _, err := eng.SearchApprox(ts[10:60], math.NaN(), 2); err == nil {
			t.Fatalf("shards=%d: SearchApprox accepted NaN threshold", shards)
		}
		if _, err := eng.SearchApprox(ts[10:60], -0.5, 2); err == nil {
			t.Fatalf("shards=%d: SearchApprox accepted negative threshold", shards)
		}
	}
}

// TestSearchApproxRejectsNonPositiveBudget is the regression test for
// the leaf-budget validation hole: leafBudget ≤ 0 used to slip through
// to the tree walk (which silently clamped it to 1) instead of being
// rejected like every other invalid argument.
func TestSearchApproxRejectsNonPositiveBudget(t *testing.T) {
	ts := datasets.RandomWalk(11, 2000)
	for _, shards := range []int{0, 3} {
		eng, err := Open(ts, Options{L: 50, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		q := ts[100:150]
		for _, budget := range []int{0, -1, -100} {
			if _, err := eng.SearchApprox(q, 0.3, budget); err == nil {
				t.Fatalf("shards=%d: SearchApprox accepted leaf budget %d", shards, budget)
			}
		}
		if _, err := eng.SearchApprox(q, 0.3, 1); err != nil {
			t.Fatalf("shards=%d: minimal valid budget rejected: %v", shards, err)
		}
	}
}

// TestWorkersOptionParity pins the Workers knob: the executor width is
// reported faithfully and never changes an answer, for every
// normalization mode.
func TestWorkersOptionParity(t *testing.T) {
	ts := datasets.EEGN(43, 9000)
	queries := datasets.Queries(ts, 17, 4, 100)
	for _, norm := range []NormMode{NormNone, NormGlobal, NormPerSubsequence} {
		single, err := Open(ts, Options{L: 100, Norm: norm, NormSet: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 6} {
			eng, err := Open(ts, Options{L: 100, Norm: norm, NormSet: true, Shards: 4, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if eng.Workers() != workers {
				t.Fatalf("Workers() = %d, want %d", eng.Workers(), workers)
			}
			for _, q := range queries {
				want, err := single.Search(q, 0.3)
				if err != nil {
					t.Fatal(err)
				}
				got, err := eng.Search(q, 0.3)
				if err != nil {
					t.Fatal(err)
				}
				assertSameMatches(t, "Search", got, want)
				wantK, _ := single.SearchTopK(q, 9)
				gotK, _ := eng.SearchTopK(q, 9)
				assertSameMatches(t, "SearchTopK", gotK, wantK)
			}
			wantBatch := single.SearchBatch(queries, 0.4)
			gotBatch := eng.SearchBatch(queries, 0.4)
			for i := range wantBatch {
				assertSameMatches(t, "SearchBatch", gotBatch[i].Matches, wantBatch[i].Matches)
			}
		}
	}
	// Workers resolves like GOMAXPROCS when unset.
	eng, err := Open(ts, Options{L: 100})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("default Workers() = %d, want GOMAXPROCS", eng.Workers())
	}
}

// TestSearchBatchMixedValidity checks the fused batch path keeps
// per-query error isolation: invalid queries carry their own errors
// while the rest of the batch completes.
func TestSearchBatchMixedValidity(t *testing.T) {
	ts := datasets.EEGN(47, 8000)
	for _, shards := range []int{0, 4} {
		eng, err := Open(ts, Options{L: 100, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		good := append([]float64(nil), ts[3000:3100]...)
		batch := [][]float64{
			good,
			make([]float64, 10),             // wrong length
			append([]float64(nil), good...), // fine
			{math.NaN()},                    // wrong length AND non-finite
		}
		out := eng.SearchBatch(batch, 0.3)
		if len(out) != 4 {
			t.Fatalf("shards=%d: %d results", shards, len(out))
		}
		for i, r := range out {
			if r.Query != i {
				t.Fatalf("shards=%d: result %d labeled query %d", shards, i, r.Query)
			}
		}
		if out[1].Err == nil || out[3].Err == nil {
			t.Fatalf("shards=%d: invalid queries must carry errors", shards)
		}
		if out[0].Err != nil || out[2].Err != nil {
			t.Fatalf("shards=%d: valid queries errored: %v %v", shards, out[0].Err, out[2].Err)
		}
		want, err := eng.Search(good, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		assertSameMatches(t, "batch result 0", out[0].Matches, want)
		assertSameMatches(t, "batch result 2", out[2].Matches, want)
	}
}

package twinsearch

// The sharded engine's knobs, its self-describing stream, concurrent
// use, and argument validation on both index shapes. That Shards and
// Workers never change an answer is TestConformance's.

import (
	"bytes"
	"math"
	"runtime"
	"sync"
	"testing"

	"twinsearch/internal/datasets"
)

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
	wantK, _ := sharded.SearchTopK(q, 5)
	gotK, _ := re.SearchTopK(q, 5)
	if !matchListsEq(got, want) || !matchListsEq(gotK, wantK) {
		t.Fatalf("reloaded sharded engine: %d matches, top-5 %v; built %d, %v", len(got), gotK, len(want), wantK)
	}

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
	if err != nil || !matchListsEq(got, want) {
		t.Fatalf("concurrent sharded search: %d matches (%v), want %d", len(got), err, len(want))
	}
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
// which NaN passes; SearchApprox checked nothing at all. Both refuse a
// negative threshold too, and SearchApprox a query shorter than L.
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
		if _, err := eng.SearchShorter(ts[10:40], -1); err == nil {
			t.Fatalf("shards=%d: SearchShorter accepted negative threshold", shards)
		}
		if _, err := eng.SearchApprox(ts[10:40], 0.3, 2); err == nil {
			t.Fatalf("shards=%d: SearchApprox accepted a short query", shards)
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

// TestSearchBatchMixedValidity checks the fused batch path keeps
// per-query error isolation: invalid queries carry their own errors
// while the rest of the batch completes. An empty batch is empty.
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
		if err != nil || !matchListsEq(out[0].Matches, want) || !matchListsEq(out[2].Matches, want) {
			t.Fatalf("shards=%d: batch results 0 and 2 hold %d and %d matches, Search %d (%v)", shards, len(out[0].Matches), len(out[2].Matches), len(want), err)
		}
		if out := eng.SearchBatch(nil, 0.3); len(out) != 0 {
			t.Fatalf("shards=%d: empty batch returned %d results", shards, len(out))
		}
	}
}

// TestSearchTopKBatchErrors pins the batch top-k error contract:
// closed engines and per-query validation surface per entry without
// disturbing valid neighbors.
func TestSearchTopKBatchErrors(t *testing.T) {
	ts := datasets.RandomWalk(41, 3000)
	eng, err := Open(ts, Options{L: 50})
	if err != nil {
		t.Fatal(err)
	}
	good := append([]float64(nil), ts[100:150]...)
	out := eng.SearchTopKBatch([][]float64{good, make([]float64, 7)}, 3)
	if out[0].Err != nil || len(out[0].Matches) != 3 {
		t.Fatalf("valid query alongside invalid one: %+v", out[0])
	}
	if out[1].Err == nil {
		t.Fatal("short query must carry its error")
	}
	if out := eng.SearchTopKBatch(nil, 3); len(out) != 0 {
		t.Fatal("empty batch must be empty")
	}

	eng.Close()
	if out := eng.SearchTopKBatch([][]float64{good}, 3); out[0].Err != ErrClosed {
		t.Fatalf("closed engine returned %v", out[0].Err)
	}
}

package twinsearch

// The sharded engine's knobs, its self-describing stream, concurrent
// use, and argument validation on both index shapes. That Shards and
// Workers never change an answer is TestConformance's.

import (
	"bytes"
	"context"
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

// TestSearchShorterRejectsNaNEps: SearchShorterCtx checked only eps < 0,
// which NaN passes. It refuses a negative threshold too.
func TestSearchShorterRejectsNaNEps(t *testing.T) {
	ts := datasets.RandomWalk(9, 2000)
	for _, shards := range []int{0, 3} {
		eng, err := Open(ts, Options{L: 50, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.SearchShorterCtx(context.Background(), ts[10:40], math.NaN()); err == nil {
			t.Fatalf("shards=%d: SearchShorterCtx accepted NaN threshold", shards)
		}
		if _, err := eng.SearchShorterCtx(context.Background(), ts[10:40], -1); err == nil {
			t.Fatalf("shards=%d: SearchShorterCtx accepted negative threshold", shards)
		}
	}
}

package twinsearch

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"twinsearch/internal/datasets"
	"twinsearch/internal/oracle"
	"twinsearch/internal/store"
)

// bothShapes are the two local index shapes every differential test
// runs: the single index and a partitioned one.
var bothShapes = []int{1, 4}

// oracleRange is the brute-force answer to eng.Search(q, eps): the
// definition of twin search over the engine's own normalized series.
func oracleRange(eng *Engine, q []float64, eps float64) []Match {
	return oracle.Range(eng.ext, eng.PrepareQuery(q), eps)
}

func TestOpenValidation(t *testing.T) {
	data := datasets.RandomWalk(1, 500)
	if _, err := Open(data, Options{}); err == nil {
		t.Fatal("missing L must fail")
	}
	if _, err := Open(data[:10], Options{L: 100}); err == nil {
		t.Fatal("short series must fail")
	}
	if _, err := Open(data, Options{L: 100, MinCap: 20, MaxCap: 30}); err == nil {
		t.Fatal("node capacities the tree cannot split must fail")
	}
}

func TestDefaultNormalization(t *testing.T) {
	eng, err := Open(datasets.RandomWalk(1, 500), Options{L: 50})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Norm() != NormGlobal {
		t.Fatalf("default norm = %v, want NormGlobal", eng.Norm())
	}
	engRaw, err := Open(datasets.RandomWalk(1, 500), Options{L: 50, NormSet: true})
	if err != nil {
		t.Fatal(err)
	}
	if engRaw.Norm() != NormNone {
		t.Fatalf("NormSet norm = %v, want NormNone", engRaw.Norm())
	}
}

func TestSearchErrors(t *testing.T) {
	eng, err := Open(datasets.RandomWalk(1, 1000), Options{L: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 101} { // 1…L is a range query
		if _, err := eng.Search(make([]float64, n), 0.1); err == nil {
			t.Fatal("wrong query length must fail")
		}
	}
	if _, err := eng.Search(make([]float64, 100), -1); err == nil {
		t.Fatal("negative eps must fail")
	}
	if _, err := eng.Search(make([]float64, 100), math.NaN()); err == nil {
		t.Fatal("NaN eps must fail")
	}
	q := make([]float64, 100)
	q[40] = math.NaN()
	if _, err := eng.Search(q, 0.1); err == nil {
		t.Fatal("NaN query must fail")
	}
	q[40] = math.Inf(1)
	if _, err := eng.Search(q, 0.1); err == nil {
		t.Fatal("Inf query must fail")
	}
}

// TestOpenRejectsNonFiniteData: a NaN window matches every query, and a
// saved index's structural checks (comparisons, all false on NaN)
// cannot see one — so every open path refuses the series itself, with
// one text: Open, OpenSaved, and OpenSavedFile with and without MMap,
// on a single and a partitioned save.
func TestOpenRejectsNonFiniteData(t *testing.T) {
	data := datasets.RandomWalk(2, 1500)
	const l, at = 50, 1000
	for _, shards := range bothShapes {
		eng, err := Open(data, Options{L: l, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "index.tsidx")
		if err := eng.SaveIndexFile(path); err != nil {
			t.Fatal(err)
		}
		var saved bytes.Buffer
		if err := eng.SaveIndex(&saved); err != nil {
			t.Fatal(err)
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			dirty := slices.Clone(data)
			dirty[at] = bad
			want := fmt.Sprintf("twinsearch: non-finite value %v at position %d; clean or impute missing samples first", bad, at)
			for name, open := range map[string]func() (*Engine, error){
				"Open":               func() (*Engine, error) { return Open(dirty, Options{L: l, Shards: shards}) },
				"OpenSaved":          func() (*Engine, error) { return OpenSaved(dirty, bytes.NewReader(saved.Bytes()), Options{L: l}) },
				"OpenSavedFile":      func() (*Engine, error) { return OpenSavedFile(dirty, path, Options{L: l}) },
				"OpenSavedFile+MMap": func() (*Engine, error) { return OpenSavedFile(dirty, path, Options{L: l, MMap: true}) },
			} {
				if _, err := open(); err == nil || err.Error() != want {
					t.Errorf("%d shards: %s over a series holding %v: error %v, want %q", shards, name, bad, err, want)
				}
			}
		}
	}
}

func TestTopK(t *testing.T) {
	ts := datasets.InsectN(5, 5000)
	eng, err := Open(ts, Options{L: 100})
	if err != nil {
		t.Fatal(err)
	}
	q := append([]float64(nil), ts[700:800]...)
	top, err := eng.SearchTopK(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 5 {
		t.Fatalf("got %d", len(top))
	}
	if top[0].Start != 700 || top[0].Dist != 0 {
		t.Fatalf("nearest must be the source window: %+v", top[0])
	}
	if want := oracle.TopK(eng.ext, eng.PrepareQuery(q), 5); !slices.Equal(top, want) {
		t.Fatalf("top-5 = %v, oracle %v", top, want)
	}
	if _, err := eng.SearchTopK(make([]float64, 3), 5); err == nil {
		t.Fatal("wrong top-k query length must fail")
	}
}

func TestAccessorsAndMemory(t *testing.T) {
	ts := datasets.RandomWalk(9, 2000)
	for _, shards := range bothShapes {
		eng, err := Open(ts, Options{L: 100, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if eng.Shards() != shards || eng.L() != 100 || eng.SeriesLen() != 2000 {
			t.Fatalf("%d shards: accessor mismatch", shards)
		}
		if eng.NumSubsequences() != 1901 {
			t.Fatalf("%d shards: NumSubsequences = %d", shards, eng.NumSubsequences())
		}
		if eng.MemoryBytes() <= 0 || eng.MappedBytes() != 0 {
			t.Fatalf("%d shards: MemoryBytes = %d, MappedBytes = %d", shards, eng.MemoryBytes(), eng.MappedBytes())
		}
		if eng.Workers() != runtime.GOMAXPROCS(0) {
			t.Fatalf("%d shards: default Workers() = %d, want GOMAXPROCS", shards, eng.Workers())
		}
		sub, err := eng.Subsequence(5)
		if err != nil || len(sub) != 100 {
			t.Fatalf("%d shards: Subsequence: %v", shards, err)
		}
		if _, err := eng.Subsequence(-1); err == nil {
			t.Fatalf("%d shards: negative position must fail", shards)
		}
		if _, err := eng.Subsequence(1999); err == nil {
			t.Fatalf("%d shards: overflowing position must fail", shards)
		}
	}
	for _, workers := range []int{1, 2, 6} {
		if eng, err := Open(ts, Options{L: 100, Shards: 4, Workers: workers}); err != nil || eng.Workers() != workers {
			t.Fatalf("Workers: %d did not size the executor (%v)", workers, err)
		}
	}
}

func TestOpenFile(t *testing.T) {
	ts := datasets.RandomWalk(11, 1500)
	path := filepath.Join(t.TempDir(), "series.f64")
	if err := store.WriteFile(path, ts); err != nil {
		t.Fatal(err)
	}
	eng, err := OpenFile(path, Options{L: 100})
	if err != nil {
		t.Fatal(err)
	}
	q := append([]float64(nil), ts[300:400]...)
	ms, err := eng.Search(q, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range ms {
		if m.Start == 300 {
			found = true
		}
	}
	if !found {
		t.Fatal("self match missing after file round trip")
	}
	if _, err := OpenFile(filepath.Join(t.TempDir(), "missing.f64"), Options{L: 10}); err == nil {
		t.Fatal("missing file must fail")
	}
}

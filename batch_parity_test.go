package twinsearch

// Batch/per-query parity: SearchBatch and SearchTopKBatch must be
// byte-identical (Start and the exact Dist bit pattern, order included)
// to per-query Search/SearchTopK on every engine search path — the
// unsharded frozen arena, shards at two shard counts, an mmap-opened
// saved index, and a local-topology
// cluster engine — under every normalization mode. Run under -race this
// also exercises the batch fan-out's concurrent unit writes.

import (
	"fmt"
	"math"
	"os"
	"testing"

	"twinsearch/internal/datasets"
)

func matchListsEq(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Start != b[i].Start ||
			math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			return false
		}
	}
	return true
}

// parityEngines opens one engine per search path over the same data and
// normalization; every engine must answer every query identically.
func parityEngines(t *testing.T, ts []float64, l int, norm NormMode) map[string]*Engine {
	return parityEnginesMod(t, ts, l, norm, nil)
}

// parityEnginesMod is parityEngines with an Options hook applied to
// every engine — the serving-cache differential tests use it to open
// the same path set with the caches enabled.
func parityEnginesMod(t *testing.T, ts []float64, l int, norm NormMode, mod func(*Options)) map[string]*Engine {
	t.Helper()
	open := func(o Options) *Engine {
		t.Helper()
		if mod != nil {
			mod(&o)
		}
		eng, err := Open(ts, o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		return eng
	}
	engines := map[string]*Engine{
		"unsharded": open(Options{L: l, Norm: norm, NormSet: true}),
		"sharded3":  open(Options{L: l, Norm: norm, NormSet: true, Shards: 3}),
		"sharded5":  open(Options{L: l, Norm: norm, NormSet: true, Shards: 5}),
	}

	// mmap-opened saved index (unsharded arena through the byte-backed
	// open path — a different boundsUpper/boundsLower backing).
	dir := t.TempDir()
	src := engines["unsharded"]
	idx := dir + "/parity.tsix"
	if err := src.SaveIndexFile(idx); err != nil {
		t.Fatal(err)
	}
	mmOpt := Options{L: l, Norm: norm, NormSet: true, MMap: true}
	if mod != nil {
		mod(&mmOpt)
	}
	mm, err := OpenSavedFile(ts, idx, mmOpt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mm.Close() })
	engines["mmap"] = mm

	// Local-topology cluster: sharded save fanned over two in-process
	// nodes — the coordinator path with zero network.
	shardedSrc, err := Open(ts, Options{L: l, Norm: norm, NormSet: true, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	topo := writeTopologyFor(t, shardedSrc, 4, 2)
	clOpt := Options{L: l, Norm: norm, NormSet: true, Topology: topo, MMap: true}
	if mod != nil {
		mod(&clOpt)
	}
	cl, err := Open(ts, clOpt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	engines["cluster"] = cl
	return engines
}

func TestSearchBatchParity(t *testing.T) {
	ts := datasets.InsectN(23, 6000)
	const l = 64
	queries := datasets.Queries(ts, 29, 6, l)
	for _, norm := range []NormMode{NormNone, NormGlobal, NormPerSubsequence} {
		t.Run(fmt.Sprint(norm), func(t *testing.T) {
			for name, eng := range parityEngines(t, ts, l, norm) {
				for _, eps := range []float64{0.15, 0.6} {
					want := make([][]Match, len(queries))
					for i, q := range queries {
						ms, err := eng.Search(q, eps)
						if err != nil {
							t.Fatalf("%s: Search: %v", name, err)
						}
						want[i] = ms
					}
					for i, r := range eng.SearchBatch(queries, eps) {
						if r.Err != nil || r.Query != i {
							t.Fatalf("%s eps=%v query %d: %+v", name, eps, i, r)
						}
						if !matchListsEq(r.Matches, want[i]) {
							t.Fatalf("%s eps=%v query %d: batch %d matches, per-query %d",
								name, eps, i, len(r.Matches), len(want[i]))
						}
					}
				}
			}
		})
	}
}

func TestSearchTopKBatchParity(t *testing.T) {
	ts := datasets.EEGN(31, 6000)
	const l = 64
	queries := datasets.Queries(ts, 37, 5, l)
	for _, norm := range []NormMode{NormNone, NormGlobal, NormPerSubsequence} {
		t.Run(fmt.Sprint(norm), func(t *testing.T) {
			for name, eng := range parityEngines(t, ts, l, norm) {
				for _, k := range []int{1, 9} {
					for i, q := range queries {
						want, err := eng.SearchTopK(q, k)
						if err != nil {
							t.Fatalf("%s: SearchTopK: %v", name, err)
						}
						got := eng.SearchTopKBatch(queries, k)
						if got[i].Err != nil || got[i].Query != i {
							t.Fatalf("%s k=%d query %d: %+v", name, k, i, got[i])
						}
						if !matchListsEq(got[i].Matches, want) {
							t.Fatalf("%s k=%d query %d: batch top-k differs from per-query", name, k, i)
						}
					}
				}
			}
		})
	}
}

// TestSearchTopKBatchErrors pins the batch top-k error contract:
// closed engines, unsupported methods, and per-query validation all
// surface per entry without disturbing valid neighbors.
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

// writeTopologyFor saves eng (already sharded) and a topology whose
// entries all resolve in-process — writeTopology generalized to any
// prebuilt engine so parity tests control the normalization mode.
func writeTopologyFor(t *testing.T, eng *Engine, shards, nodes int) string {
	t.Helper()
	dir := t.TempDir()
	idx := dir + "/idx.tsidx"
	if err := eng.SaveIndexFile(idx); err != nil {
		t.Fatal(err)
	}
	doc := fmt.Sprintf(`{"index": "idx.tsidx", "nodes": [`)
	for i := 0; i < nodes; i++ {
		if i > 0 {
			doc += ","
		}
		run := ""
		for s := i * shards / nodes; s < (i+1)*shards/nodes; s++ {
			if run != "" {
				run += ","
			}
			run += fmt.Sprint(s)
		}
		doc += fmt.Sprintf(`{"name": "n%d", "addr": "local", "shards": [%s]}`, i, run)
	}
	doc += "]}"
	path := dir + "/topo.json"
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

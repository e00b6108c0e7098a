package twinsearch

// Engine-level coverage of the distributed tier and lifecycle guards:
// Options.Topology with in-process ("local") entries — the coordinator
// shape with zero network — plus use-after-Close and prefetch warmup.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"twinsearch/internal/datasets"
)

// writeTopology saves a sharded index and a topology file whose entries
// all resolve in-process, returning the topology path.
func writeTopology(t *testing.T, data []float64, l, shards, nodes int) string {
	t.Helper()
	dir := t.TempDir()
	eng, err := Open(data, Options{L: l, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	idx := filepath.Join(dir, "idx.tsidx")
	if err := eng.SaveIndexFile(idx); err != nil {
		t.Fatal(err)
	}
	type nodeDoc struct {
		Name   string `json:"name"`
		Addr   string `json:"addr"`
		Shards []int  `json:"shards"`
	}
	doc := struct {
		Index string    `json:"index"`
		Nodes []nodeDoc `json:"nodes"`
	}{Index: "idx.tsidx"}
	for i := 0; i < nodes; i++ {
		var run []int
		for s := i * shards / nodes; s < (i+1)*shards/nodes; s++ {
			run = append(run, s)
		}
		doc.Nodes = append(doc.Nodes, nodeDoc{Name: "n" + string(rune('0'+i)), Addr: "local", Shards: run})
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "topo.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestClusterEngineLocal drives a topology-backed engine through the
// public API and checks parity with a plain local engine.
func TestClusterEngineLocal(t *testing.T) {
	data := datasets.EEGN(61, 3000)
	const l = 100
	topo := writeTopology(t, data, l, 4, 2)

	local, err := Open(data, Options{L: l, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(data, Options{L: l, Topology: topo, MMap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	if eng.Cluster() == nil || eng.Shards() != 4 {
		t.Fatalf("cluster engine reports %d shards, cluster=%v", eng.Shards(), eng.Cluster())
	}
	if eng.MappedBytes() == 0 {
		t.Fatal("local topology entries with MMap should map the index")
	}

	q := data[500:600]
	want, err := local.Search(q, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Search(q, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("cluster engine: %d matches, local %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("match %d: %+v vs %+v", i, got[i], want[i])
		}
	}

	wantK, _ := local.SearchTopK(q, 5)
	gotK, err := eng.SearchTopK(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantK {
		if wantK[i] != gotK[i] {
			t.Fatalf("topk %d: %+v vs %+v", i, gotK[i], wantK[i])
		}
	}

	wantS, _ := local.SearchShorter(q[:50], 0.3)
	gotS, err := eng.SearchShorter(q[:50], 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantS) != len(gotS) {
		t.Fatalf("shorter: %d vs %d", len(gotS), len(wantS))
	}

	// Approximate with a saturating budget is the exact answer.
	gotA, err := eng.SearchApprox(q, 0.3, 2*eng.NumSubsequences())
	if err != nil {
		t.Fatal(err)
	}
	if len(gotA) != len(want) {
		t.Fatalf("approx: %d vs %d", len(gotA), len(want))
	}

	// Batch rides the same coordinator.
	batch := eng.SearchBatch([][]float64{q, data[0:100], {1, 2}}, 0.3)
	if batch[0].Err != nil || len(batch[0].Matches) != len(want) {
		t.Fatalf("batch[0] = %+v", batch[0])
	}
	if batch[2].Err == nil {
		t.Fatal("batch[2]: short query accepted")
	}

	// Read-only surface.
	if err := eng.Append(1, 2, 3); err == nil {
		t.Fatal("Append on a cluster engine succeeded")
	}
	if err := eng.SaveIndex(os.NewFile(0, "")); err == nil {
		t.Fatal("SaveIndex on a cluster engine succeeded")
	}
}

// TestUseAfterClose proves the lifecycle guard: once Close runs, every
// search, batch, append, and save fails with ErrClosed instead of
// faulting on the unmapped region — on a genuinely mmap-backed engine.
func TestUseAfterClose(t *testing.T) {
	data := datasets.RandomWalk(67, 2500)
	const l = 64
	src, err := Open(data, Options{L: l, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.tsidx")
	if err := src.SaveIndexFile(path); err != nil {
		t.Fatal(err)
	}
	eng, err := OpenSavedFile(data, path, Options{L: l, MMap: true})
	if err != nil {
		t.Fatal(err)
	}
	if eng.MappedBytes() == 0 {
		t.Skip("mmap unavailable on this platform; guard covered elsewhere")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	q := data[100 : 100+l]
	if _, err := eng.Search(q, 0.3); err != ErrClosed {
		t.Fatalf("Search after Close: %v", err)
	}
	if _, err := eng.SearchPrepared(q, 0.3); err != ErrClosed {
		t.Fatalf("SearchPrepared after Close: %v", err)
	}
	if _, err := eng.SearchTopK(q, 3); err != ErrClosed {
		t.Fatalf("SearchTopK after Close: %v", err)
	}
	if _, err := eng.SearchShorter(q[:10], 0.3); err != ErrClosed {
		t.Fatalf("SearchShorter after Close: %v", err)
	}
	if _, err := eng.SearchApprox(q, 0.3, 4); err != ErrClosed {
		t.Fatalf("SearchApprox after Close: %v", err)
	}
	if err := eng.Append(1, 2, 3); err != ErrClosed {
		t.Fatalf("Append after Close: %v", err)
	}
	if err := eng.SaveIndex(nil); err != ErrClosed {
		t.Fatalf("SaveIndex after Close: %v", err)
	}
	for _, r := range eng.SearchBatch([][]float64{q, q}, 0.3) {
		if r.Err != ErrClosed {
			t.Fatalf("SearchBatch[%d] after Close: %v", r.Query, r.Err)
		}
	}
}

// TestConcurrentDoubleClose races Close against itself (run under
// -race): both calls must return nil and the engine must end closed.
func TestConcurrentDoubleClose(t *testing.T) {
	data := datasets.RandomWalk(71, 1500)
	const l = 50
	src, err := Open(data, Options{L: l, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.tsidx")
	if err := src.SaveIndexFile(path); err != nil {
		t.Fatal(err)
	}
	eng, err := OpenSavedFile(data, path, Options{L: l, MMap: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := eng.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	wg.Wait()
	if _, err := eng.Search(data[:l], 0.3); err != ErrClosed {
		t.Fatalf("post-close search: %v", err)
	}
}

// TestPrefetchOpen exercises Options.Prefetch on a mapped open: the
// warmed engine must answer identically to a cold one.
func TestPrefetchOpen(t *testing.T) {
	data := datasets.EEGN(73, 2600)
	const l = 80
	src, err := Open(data, Options{L: l, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.tsidx")
	if err := src.SaveIndexFile(path); err != nil {
		t.Fatal(err)
	}
	warm, err := OpenSavedFile(data, path, Options{L: l, MMap: true, Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	q := data[300 : 300+l]
	want, err := src.Search(q, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := warm.Search(q, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("prefetched engine diverged: %d vs %d matches", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("match %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}

package twinsearch

// Engine-level coverage of the distributed tier and lifecycle guards:
// Options.Topology over loopback shard nodes, plus use-after-Close.

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"twinsearch/internal/datasets"
)

// writeTopology saves a sharded index of data, serves it from that many
// loopback shard nodes (see nodeTopology), and returns their
// topology's path.
func writeTopology(t *testing.T, data []float64, l, shards, nodes int) string {
	t.Helper()
	eng, err := Open(data, Options{L: l, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	idx := filepath.Join(t.TempDir(), "idx.tsidx")
	if err := eng.SaveIndexFile(idx); err != nil {
		t.Fatal(err)
	}
	return nodeTopology(t, idx, data, NormGlobal, shards, nodes, 1)
}

// TestClusterEngine drives a topology-backed engine through the public
// API: it reports the index's shards, holds none of the index itself
// (its nodes do), and is read-only. (Its answers are TestConformance's
// cluster rows.)
func TestClusterEngine(t *testing.T) {
	data := datasets.EEGN(61, 3000)
	const l = 100
	eng, err := Open(data, Options{L: l, Topology: writeTopology(t, data, l, 4, 2), MMap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	if eng.Cluster() == nil || eng.Shards() != 4 {
		t.Fatalf("cluster engine reports %d shards, cluster=%v", eng.Shards(), eng.Cluster())
	}
	if n := eng.MemoryBytes(); n != 0 {
		t.Fatalf("a coordinator reports %d bytes of index; its nodes hold it", n)
	}
	if err := eng.Append(1, 2, 3); err == nil {
		t.Fatal("Append on a cluster engine succeeded")
	}
	if err := eng.SaveIndex(os.NewFile(0, "")); err == nil {
		t.Fatal("SaveIndex on a cluster engine succeeded")
	}
}

// TestUseAfterClose proves the lifecycle guard: once Close runs, every
// search, append, and save fails with ErrClosed instead of
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
	if _, err := eng.SearchTopK(q, 3); err != ErrClosed {
		t.Fatalf("SearchTopK after Close: %v", err)
	}
	if _, err := eng.SearchCtx(context.Background(), q[:10], 0.3); err != ErrClosed {
		t.Fatalf("SearchCtx (shorter query) after Close: %v", err)
	}
	if err := eng.Append(1, 2, 3); err != ErrClosed {
		t.Fatalf("Append after Close: %v", err)
	}
	if err := eng.SaveIndex(nil); err != ErrClosed {
		t.Fatalf("SaveIndex after Close: %v", err)
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

package twinsearch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"twinsearch/internal/arena"
	"twinsearch/internal/datasets"
)

// TestSavedFormatMatrix is the persistence contract's format half. Each
// format SaveIndex writes maps with Options.MMap and counts its bytes as
// mapped (its answers are TestConformance's). Each stream generation
// this code base once wrote and no longer reads (TSIX, TSFZ v1–v3, TSSH
// v1–v4) and anything unknown is refused from its six-byte header alone,
// and a TSSH v5 container marked with the retired mean-sorted partition
// from its partition byte, with one text on every entry point, mapped
// or read.
func TestSavedFormatMatrix(t *testing.T) {
	data := datasets.RandomWalk(83, 1700)
	const l = 44
	dir := t.TempDir()
	canMap := arena.MapSupported()

	for name, shards := range map[string]int{"TSFZ v4": 1, "TSSH v5": 2} {
		path := filepath.Join(dir, name+".tsidx")
		eng, err := Open(data, Options{L: l, Shards: shards})
		if err == nil {
			err = eng.SaveIndexFile(path)
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			viaMMap, err := OpenSavedFile(data, path, Options{L: l, MMap: true})
			if err != nil {
				t.Fatalf("OpenSavedFile(MMap): %v", err)
			}
			defer viaMMap.Close()
			if canMap && viaMMap.MappedBytes() == 0 {
				t.Errorf("%s: MMap open reports no mapped bytes", name)
			}
			if viaMMap.MemoryBytes() != viaMMap.HeapBytes()+viaMMap.MappedBytes() {
				t.Errorf("%s: MemoryBytes %d != HeapBytes %d + MappedBytes %d",
					name, viaMMap.MemoryBytes(), viaMMap.HeapBytes(), viaMMap.MappedBytes())
			}
		})
	}

	const rebuild = "; this version reads only TSFZ v4 and TSSH v5 — rebuild it from its series: tsquery -series S -qstart 0 -l L [-shards N] -saveindex F"
	// A TSSH v5 file as a by-mean engine would have saved it, as far as
	// a loader gets: every other byte of it is one this version accepts.
	meanSorted, err := os.ReadFile(filepath.Join(dir, "TSSH v5.tsidx"))
	if err != nil {
		t.Fatal(err)
	}
	meanSorted[6] = 1
	for _, c := range []struct {
		name    string
		magic   string
		version uint16
		want    string
		stream  []byte // nil: the (magic, version) header and zero bytes
	}{
		{"TSIX", "TSIX", 1, "twinsearch: saved index is a TSIX v1 stream" + rebuild, nil},
		{"TSFZ v1", "TSFZ", 1, "twinsearch: saved index is a TSFZ v1 stream" + rebuild, nil},
		{"TSSH v1", "TSSH", 1, "twinsearch: saved index is a TSSH v1 stream" + rebuild, nil},
		{"TSSH v2", "TSSH", 2, "twinsearch: saved index is a TSSH v2 stream" + rebuild, nil},
		// The generation ISSUE 21 retired: float64 bounds, no checksums.
		{"TSFZ v2", "TSFZ", 2, "twinsearch: saved index is a TSFZ v2 stream" + rebuild, nil},
		{"TSSH v3", "TSSH", 3, "twinsearch: saved index is a TSSH v3 stream" + rebuild, nil},
		// The generation whose bound rows were in time order.
		{"TSFZ v3", "TSFZ", 3, "twinsearch: saved index is a TSFZ v3 stream" + rebuild, nil},
		{"TSSH v4", "TSSH", 4, "twinsearch: saved index is a TSSH v4 stream" + rebuild, nil},
		{"unknown magic", "JUNK", 2, `twinsearch: saved index has unknown magic "JUNK"`, nil},
		{"TSSH v5 by mean", "TSSH", 5, "shard: load: the index was saved with mean-sorted shard partitioning (partition scheme 1), which is no longer read; only contiguous partitions are — rebuild it from its series: tsquery -series S -qstart 0 -l L -shards N -saveindex F", meanSorted},
	} {
		t.Run(c.name, func(t *testing.T) {
			stream := c.stream
			if stream == nil {
				// A header and enough zero bytes behind it that only the
				// header can be what the loaders object to.
				stream = make([]byte, 4096)
				copy(stream, c.magic)
				binary.LittleEndian.PutUint16(stream[4:], c.version)
			}
			path := filepath.Join(dir, c.name+".tsidx")
			if err := os.WriteFile(path, stream, 0o644); err != nil {
				t.Fatal(err)
			}
			for entry, open := range map[string]func() (*Engine, error){
				"OpenSaved":          func() (*Engine, error) { return OpenSaved(data, bytes.NewReader(stream), Options{L: l}) },
				"OpenSavedFile":      func() (*Engine, error) { return OpenSavedFile(data, path, Options{L: l}) },
				"OpenSavedFile+MMap": func() (*Engine, error) { return OpenSavedFile(data, path, Options{L: l, MMap: true}) },
			} {
				if _, err := open(); err == nil || err.Error() != c.want {
					t.Errorf("%s: error %v, want %q", entry, err, c.want)
				}
			}
		})
	}
}

// TestHeapOpenRefusesDuplicatePosition saves a single and a 4-shard
// index, copies the first held position over the second in each — so
// one window is held twice and another not at all — and reseals the two
// checksums that cover the change (the positions section's and the
// segment header's). Every check a heap open makes but the ownership
// scan passes such a file, and the single index would then answer
// without the lost window; both must be refused, by OpenSaved and by a
// read (not mapped) OpenSavedFile.
func TestHeapOpenRefusesDuplicatePosition(t *testing.T) {
	data := datasets.EEGN(1, 3000)
	const l = 50
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	dir := t.TempDir()
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			eng, err := Open(data, Options{L: l, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := eng.SaveIndex(&buf); err != nil {
				t.Fatal(err)
			}
			stream := buf.Bytes()
			seg := 0 // a TSFZ stream is its one segment
			if shards > 1 {
				// A TSSH header: 12 bytes, shards+1 boundaries, shards
				// segment lengths, its checksum; shard 0's TSFZ follows.
				seg = 12 + 8*(shards+1) + 8*shards + 4
			}
			at := func(off int) int { return seg + int(binary.LittleEndian.Uint64(stream[seg+off:])) }
			positions, upper := at(64), at(72) // the positions section and the one after it
			copy(stream[positions+4:positions+8], stream[positions:positions+4])
			binary.LittleEndian.PutUint32(stream[seg+104:], crc32.Checksum(stream[positions:upper], castagnoli))
			binary.LittleEndian.PutUint32(stream[seg+116:], crc32.Checksum(stream[seg:seg+116], castagnoli))
			path := filepath.Join(dir, fmt.Sprintf("dup-%d.tsidx", shards))
			if err := os.WriteFile(path, stream, 0o644); err != nil {
				t.Fatal(err)
			}
			for entry, open := range map[string]func() (*Engine, error){
				"OpenSaved":     func() (*Engine, error) { return OpenSaved(data, bytes.NewReader(stream), Options{L: l}) },
				"OpenSavedFile": func() (*Engine, error) { return OpenSavedFile(data, path, Options{L: l}) },
			} {
				if _, err := open(); err == nil || !strings.Contains(err.Error(), "owned twice") {
					t.Errorf("%s: error %v, want the position owned twice refused", entry, err)
				}
			}
		})
	}
}

// TestMMapEngineAppendAndClose exercises the mutation path on a mapped
// engine: Append grows the tail in place (the mapping stays, nothing is
// written through it), a compaction moves the rebuilt last shard to the
// heap, and Close must release cleanly and stay idempotent.
func TestMMapEngineAppendAndClose(t *testing.T) {
	if !arena.MapSupported() {
		t.Skip("zero-copy open unsupported on this platform")
	}
	data := datasets.RandomWalk(84, 1500)
	const l = 36
	built, err := Open(data, Options{L: l, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.tssh")
	if err := built.SaveIndexFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// The engine must not alias the slice the caller handed it once
	// appends grow the series; give it a private copy.
	eng, err := OpenSavedFile(append([]float64(nil), data...), path, Options{L: l, Shards: 3, MMap: true})
	if err != nil {
		t.Fatal(err)
	}
	mappedBefore := eng.MappedBytes()
	if mappedBefore == 0 {
		t.Fatal("mapped engine reports no mapped bytes")
	}
	q := append([]float64(nil), data[100:100+l]...)
	want, err := eng.Search(q, 0.5)
	if err != nil {
		t.Fatal(err)
	}

	// Append a copy of the query window's values: the new trailing
	// window becomes a guaranteed twin.
	if err := eng.Append(q...); err != nil {
		t.Fatal(err)
	}
	got, err := eng.Search(q, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want)+1 {
		t.Fatalf("post-append search found %d twins, want %d", len(got), len(want)+1)
	}
	if got[len(got)-1].Start != eng.SeriesLen()-l {
		t.Fatalf("appended twin missing: last match at %d, want %d", got[len(got)-1].Start, eng.SeriesLen()-l)
	}
	if eng.MappedBytes() != mappedBefore {
		t.Fatalf("an append moved the mapping: %d bytes mapped, %d before", eng.MappedBytes(), mappedBefore)
	}
	// Saving compacts the tail: the rebuilt last shard lives on the heap.
	if err := eng.SaveIndexFile(filepath.Join(t.TempDir(), "grown.tssh")); err != nil {
		t.Fatal(err)
	}
	if eng.MappedBytes() >= mappedBefore {
		t.Fatalf("compaction left the last shard on the mapping (%d >= %d)", eng.MappedBytes(), mappedBefore)
	}
	if again, err := eng.Search(q, 0.5); err != nil || !matchListsEq(again, got) {
		t.Fatalf("post-compaction search: %v (%v), want %v", again, err, got)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("append wrote through the mapped index file")
	}

	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestSaveOverMappedFile re-saves a mapped engine over the very file
// it is mapped from: SaveIndexFile's temp-and-rename must read the old
// inode (no truncation under the mapping, no SIGBUS) and leave a valid
// index behind.
func TestSaveOverMappedFile(t *testing.T) {
	if !arena.MapSupported() {
		t.Skip("zero-copy open unsupported on this platform")
	}
	data := datasets.RandomWalk(86, 1400)
	const l = 36
	built, err := Open(data, Options{L: l, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.tssh")
	if err := built.SaveIndexFile(path); err != nil {
		t.Fatal(err)
	}
	eng, err := OpenSavedFile(append([]float64(nil), data...), path, Options{L: l, MMap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q := append([]float64(nil), data[200:200+l]...)
	want, err := eng.Search(q, 0.5)
	if err != nil {
		t.Fatal(err)
	}

	// Grow the engine, then save over its own backing file.
	if err := eng.Append(q...); err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveIndexFile(path); err != nil {
		t.Fatalf("re-save over the mapped file: %v", err)
	}
	// The mapped engine keeps answering from the old inode...
	got, err := eng.Search(q, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want)+1 {
		t.Fatalf("post-save search found %d twins, want %d", len(got), len(want)+1)
	}
	// ...and the new file reopens as a valid index including the append.
	re, err := OpenSavedFile(append(append([]float64(nil), data...), q...), path, Options{L: l, MMap: true})
	if err != nil {
		t.Fatalf("reopening the re-saved index: %v", err)
	}
	defer re.Close()
	ms, err := re.Search(q, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(want)+1 {
		t.Fatalf("re-saved index has %d twins, want %d", len(ms), len(want)+1)
	}
}

// TestFailedSaveLeavesTarget makes SaveIndexFile fail after it has
// created its temp file — a closed engine and a cluster engine both
// refuse in SaveIndex, over a saved file that a mapped engine is
// serving, and a working engine's final rename fails over a non-empty
// directory. Each failure must remove its temp file, and leave the
// target unchanged and the mapped engine answering as before.
func TestFailedSaveLeavesTarget(t *testing.T) {
	if !arena.MapSupported() {
		t.Skip("zero-copy open unsupported on this platform")
	}
	data := datasets.RandomWalk(87, 1400)
	const l = 36
	built, err := Open(data, Options{L: l, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	dir := t.TempDir()
	path := filepath.Join(dir, "index.tssh")
	if err := built.SaveIndexFile(path); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	served, err := OpenSavedFile(data, path, Options{L: l, MMap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer served.Close()
	q := append([]float64(nil), data[300:300+l]...)
	wantMs, err := served.Search(q, 0.5)
	if err != nil {
		t.Fatal(err)
	}

	closed, err := Open(data, Options{L: l})
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	clustered, err := Open(data, Options{L: l, Topology: nodeTopology(t, path, data, NormGlobal, 2, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer clustered.Close()
	// A non-empty directory where the index should go: SaveIndex and
	// the sync succeed, and os.Rename refuses to replace it.
	blocked := filepath.Join(dir, "blocked")
	if err := os.Mkdir(blocked, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(blocked, "keep"), []byte("kept"), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name   string
		eng    *Engine
		target string
	}{{"closed", closed, path}, {"cluster", clustered, path}, {"rename", built, blocked}} {
		err := c.eng.SaveIndexFile(c.target)
		if err == nil {
			t.Fatalf("%s engine saved an index", c.name)
		}
		if c.name == "closed" && !errors.Is(err, ErrClosed) {
			t.Fatalf("closed engine: %v, want ErrClosed", err)
		}
		if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(tmps) != 0 {
			t.Fatalf("%s: failed save left %v behind", c.name, tmps)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: failed save changed the target (%d bytes, was %d)", c.name, len(got), len(want))
		}
		ents, err := os.ReadDir(blocked)
		kept, _ := os.ReadFile(filepath.Join(blocked, "keep"))
		if err != nil || len(ents) != 1 || string(kept) != "kept" {
			t.Fatalf("%s: failed save changed the blocking directory: %v, %d entries, keep=%q", c.name, err, len(ents), kept)
		}
		ms, err := served.Search(q, 0.5)
		if err != nil || !slices.Equal(ms, wantMs) {
			t.Fatalf("%s: mapped engine answers %d twins (%v) after the failed save, %d before", c.name, len(ms), err, len(wantMs))
		}
	}
}

// errKilled is what a killedWriter returns once its budget is spent.
var errKilled = errors.New("writer killed")

// killedWriter takes the first left bytes written to it and fails every
// write past them, as a full disk or a dying process would; ends records
// where each complete write ended.
type killedWriter struct {
	bytes.Buffer
	left int
	ends []int
}

func (w *killedWriter) Write(p []byte) (int, error) {
	n, _ := w.Buffer.Write(p[:min(len(p), w.left)])
	w.left -= n
	if n < len(p) {
		return n, errKilled
	}
	w.ends = append(w.ends, w.Len())
	return n, nil
}

// TestSaveKilledMidStream kills SaveIndex's writer after n bytes, for n
// at every section boundary ±1 and on a stride through the stream, on a
// single and a four-shard index. SaveIndex must return the writer's
// error, having written exactly the stream's first n bytes, and that
// prefix must be refused by every open path.
func TestSaveKilledMidStream(t *testing.T) {
	data := datasets.RandomWalk(88, 1400)
	const l = 36
	dir := t.TempDir()
	for _, shards := range bothShapes {
		eng, err := Open(data, Options{L: l, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		// Each write of a whole save is one header or section.
		full := &killedWriter{left: math.MaxInt}
		if err := eng.SaveIndex(full); err != nil {
			t.Fatal(err)
		}
		var ns []int
		for n := 0; n < full.Len(); n += full.Len() / 40 {
			ns = append(ns, n)
		}
		for _, end := range full.ends { // the last is the whole stream
			ns = append(ns, end-1, min(end, full.Len()-1), min(end+1, full.Len()-1))
		}
		for _, n := range ns {
			w := &killedWriter{left: n}
			if err := eng.SaveIndex(w); !errors.Is(err, errKilled) || !bytes.Equal(w.Bytes(), full.Bytes()[:n]) {
				t.Fatalf("%d shards, killed at byte %d of %d: SaveIndex returned %v after %d bytes", shards, n, full.Len(), err, w.Len())
			}
			path := filepath.Join(dir, fmt.Sprintf("killed-%d-%d", shards, n))
			if err := os.WriteFile(path, w.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			for entry, open := range map[string]func() (*Engine, error){
				"OpenSaved":          func() (*Engine, error) { return OpenSaved(data, bytes.NewReader(w.Bytes()), Options{L: l}) },
				"OpenSavedFile":      func() (*Engine, error) { return OpenSavedFile(data, path, Options{L: l}) },
				"OpenSavedFile+MMap": func() (*Engine, error) { return OpenSavedFile(data, path, Options{L: l, MMap: true}) },
			} {
				if re, err := open(); err == nil {
					re.Close()
					t.Errorf("%d shards: %s opened the first %d of %d bytes", shards, entry, n, full.Len())
				}
			}
		}
		eng.Close()
	}
}

// BenchmarkColdOpen measures bringing a saved sharded index back to
// life, copy versus mmap. The interesting columns are ns/op and B/op:
// the copy open reads the file into one heap arena and verifies it in
// full, the mmap open allocates O(header) for the index and lets the
// first queries fault pages in. Both variants share an O(series) floor — the engine's
// extractor z-normalizes the raw series into a fresh slice — so the
// index-side contrast is (B/op − seriesBytes): O(arena) for copy,
// O(header) for mmap (bench/'s persist.open_copy_ms and
// persist.open_mmap_ms rows isolate it exactly).
//
// served/copy/open is the served benchmark's hot-append set-up in
// process: EEG 200 k, L = 100, one TSFZ saved by an uncached engine and
// copy-opened with tsserve's serving options (both caches at their
// defaults, the slow-query log on) — the open whose containment check
// is one kernel.BoundsInside32 pass per internal node and one
// kernel.WindowsInside32 pass per leaf, cut into units on the engine's
// executor. served/copy/open-workers1 is the same open on a one-worker
// executor, where the passes that overlap share one worker and the
// calling goroutine.
//
// served/coordinator is the served benchmark's cluster-r2 set-up in
// process, less the nodes' own opens: a coordinator engine opened over a
// 4-shard save of the same EEG series, served by 4 loopback mmap nodes
// as 2 replica groups × 2 — the open probes the 4 nodes' /healthz while
// the series is prepared.
func BenchmarkColdOpen(b *testing.B) {
	data := datasets.RandomWalk(85, 200_000)
	const l = 100
	eng, err := Open(data, Options{L: l, Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	path := filepath.Join(dir, "index.tssh")
	if err := eng.SaveIndexFile(path); err != nil {
		b.Fatal(err)
	}
	q := append([]float64(nil), data[1000:1000+l]...)

	eeg := datasets.EEGN(1, 200_000)
	single, err := Open(eeg, Options{L: l})
	if err != nil {
		b.Fatal(err)
	}
	singlePath := filepath.Join(dir, "single.tsfz")
	if err := single.SaveIndexFile(singlePath); err != nil {
		b.Fatal(err)
	}
	single.Close()
	for _, served := range []struct {
		name    string
		workers int
	}{
		{"served/copy/open", 0},
		{"served/copy/open-workers1", 1},
	} {
		b.Run(served.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				re, err := OpenSavedFile(eeg, singlePath, Options{L: l, Norm: NormGlobal, NormSet: true, Workers: served.workers,
					ResultCacheBytes: -1, SlowLogSize: 128, SlowLogThreshold: 100 * time.Millisecond})
				if err != nil {
					b.Fatal(err)
				}
				if err := re.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// served/coordinator: the 4-shard save of the same series behind 4
	// loopback mmap nodes, 2 groups × 2 replicas.
	sharded, err := Open(eeg, Options{L: l, Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	shardedPath := filepath.Join(dir, "sharded.tssh")
	if err := sharded.SaveIndexFile(shardedPath); err != nil {
		b.Fatal(err)
	}
	sharded.Close()
	topo := nodeTopology(b, shardedPath, eeg, NormGlobal, 4, 2, 2)
	b.Run("served/coordinator", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			re, err := Open(eeg, Options{L: l, Norm: NormGlobal, NormSet: true, Topology: topo, MMap: true})
			if err != nil {
				b.Fatal(err)
			}
			if err := re.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})

	for _, variant := range []struct {
		name  string
		mmap  bool
		query bool
	}{
		{"copy/open", false, false},
		{"mmap/open", true, false},
		{"copy/open+query", false, true},
		{"mmap/open+query", true, true},
	} {
		b.Run(variant.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				re, err := OpenSavedFile(data, path, Options{L: l, MMap: variant.mmap})
				if err != nil {
					b.Fatal(err)
				}
				if variant.query {
					if _, err := re.Search(q, 0.3); err != nil {
						b.Fatal(err)
					}
				}
				if err := re.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ExampleOptions_mMap documents the zero-copy serving pattern.
func ExampleOptions_mMap() {
	data := datasets.RandomWalk(1, 2000)
	eng, _ := Open(data, Options{L: 50, Shards: 2})
	path := filepath.Join(os.TempDir(), "twins-example.tssh")
	_ = eng.SaveIndexFile(path)
	defer os.Remove(path)

	// A second process (or a restart) serves the same index without
	// re-reading it: open is a map + header validation.
	served, _ := OpenSavedFile(data, path, Options{L: 50, MMap: true})
	defer served.Close()
	ms, _ := served.Search(data[100:150], 0.5)
	fmt.Println(len(ms) > 0)
	// Output: true
}

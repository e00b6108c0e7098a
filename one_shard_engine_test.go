package twinsearch

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"twinsearch/internal/core"
	"twinsearch/internal/datasets"
	"twinsearch/internal/oracle"
	"twinsearch/internal/series"
)

// TestOneShardEngineIsTheOldSingleIndex pins what serving the single
// index as a one-shard shard.Index must not change: the bytes SaveIndex
// writes are core.Build's tree frozen — a bare TSFZ v3 stream, the file
// bench's core rung maps with core.FrozenFromArena(ar, 0, …) — and the
// counters its backing reports are Frozen.SearchStats's on that tree.
// Then the mutation path: a saved index reopened by copy and by mapping
// and appended to is, byte for byte, the tree a rebuild over the grown
// series inserts, and answers all five paths as the oracle does.
func TestOneShardEngineIsTheOldSingleIndex(t *testing.T) {
	const l = 60
	data := datasets.EEGN(71, 3000)
	tail := datasets.EEGN(72, 150)
	frozenBytes := func(ext *series.Extractor) (*core.Frozen, []byte) {
		t.Helper()
		f, err := core.Build(ext, core.Config{L: l})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := f.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return f, buf.Bytes()
	}
	saved := func(e *Engine) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := e.SaveIndex(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	for _, shards := range []int{0, 1} {
		for _, mode := range []NormMode{NormNone, NormGlobal, NormPerSubsequence} {
			t.Run(fmt.Sprintf("shards=%d/%v", shards, mode), func(t *testing.T) {
				opt := Options{L: l, Norm: mode, NormSet: true, Shards: shards}
				eng, err := Open(slices.Clone(data), opt)
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				ext := series.NewExtractor(slices.Clone(data), mode)
				fz, want := frozenBytes(ext)
				stream := saved(eng)
				if !bytes.Equal(stream, want) {
					t.Fatalf("SaveIndex wrote %d bytes, not the frozen core.Build tree's %d", len(stream), len(want))
				}
				if string(stream[:4]) != core.FrozenMagic || binary.LittleEndian.Uint16(stream[4:]) != core.FrozenVersion {
					t.Fatalf("SaveIndex wrote %q v%d, want a bare %s v%d stream", stream[:4], binary.LittleEndian.Uint16(stream[4:]), core.FrozenMagic, core.FrozenVersion)
				}
				if eng.Shards() != 1 {
					t.Fatalf("engine reports %d shards", eng.Shards())
				}
				if eng.HeapBytes() != fz.MemoryBytes() || eng.MappedBytes() != 0 {
					t.Fatalf("engine holds %d heap / %d mapped bytes, the arena %d", eng.HeapBytes(), eng.MappedBytes(), fz.MemoryBytes())
				}
				q := data[1200 : 1200+l]
				for _, eps := range []float64{0, 0.2, 1.0} {
					ms, st, err := backingStats(eng, eng.PrepareQuery(q), eps)
					wantM, wantS := fz.SearchStats(ext.TransformQuery(q), eps)
					if err != nil || !slices.Equal(ms, wantM) || st != wantS {
						t.Fatalf("eps=%g: backing SearchStats %d matches %+v (%v), Frozen.SearchStats %d matches %+v", eps, len(ms), st, err, len(wantM), wantS)
					}
					if ms, err := eng.Search(q, eps); err != nil || !slices.Equal(ms, wantM) {
						t.Fatalf("eps=%g: Search %d matches (%v), Frozen.SearchStats %d", eps, len(ms), err, len(wantM))
					}
				}

				// Reopen the saved file both ways, append, compare with a
				// rebuild: the extractor grown by the same values, built
				// from scratch.
				path := filepath.Join(t.TempDir(), "index.tsfz")
				if err := os.WriteFile(path, stream, 0o644); err != nil {
					t.Fatal(err)
				}
				ext.Append(tail...)
				refz, rebuilt := frozenBytes(ext)
				tq := ext.TransformQuery(q)
				for _, mmap := range []bool{false, true} {
					o := opt
					o.MMap = mmap
					re, err := OpenSavedFile(slices.Clone(data), path, o)
					if err != nil {
						t.Fatalf("mmap=%v: %v", mmap, err)
					}
					defer re.Close()
					if err := re.Append(tail...); err != nil {
						t.Fatal(err)
					}
					if got := saved(re); !bytes.Equal(got, rebuilt) {
						t.Fatalf("mmap=%v: open → Append → SaveIndex differs from a rebuild over the grown series", mmap)
					}
					if re.MappedBytes() != 0 {
						t.Fatalf("mmap=%v: %d bytes still mapped after the save compacted the tail", mmap, re.MappedBytes())
					}
					ms, st, err := backingStats(re, tq, 0.2)
					wantM, wantS := refz.SearchStats(tq, 0.2)
					if err != nil || !slices.Equal(ms, wantM) || st != wantS || !slices.Equal(ms, oracle.Range(ext, tq, 0.2)) {
						t.Fatalf("mmap=%v: backing SearchStats after append: %d matches %+v (%v), rebuild %d matches %+v", mmap, len(ms), st, err, len(wantM), wantS)
					}
					if ms, err := re.Search(q, 1.0); err != nil || !slices.Equal(ms, oracle.Range(ext, tq, 1.0)) {
						t.Fatalf("mmap=%v: Search after append: %d matches (%v)", mmap, len(ms), err)
					}
					if ms, err := re.SearchTopK(q, 9); err != nil || !slices.Equal(ms, oracle.TopK(ext, tq, 9)) {
						t.Fatalf("mmap=%v: SearchTopK after append: %v (%v)", mmap, ms, err)
					}
					if mode == NormPerSubsequence {
						continue // no prefix search under per-window normalization
					}
					if ms, err := re.SearchCtx(context.Background(), q[:l/2], 0.4); err != nil || !slices.Equal(ms, oracle.Range(ext, tq[:l/2], 0.4)) {
						t.Fatalf("mmap=%v: shorter SearchCtx after append: %d matches (%v)", mmap, len(ms), err)
					}
				}
			})
		}
	}
}

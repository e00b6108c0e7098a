package shard

import (
	"context"
	"encoding/binary"
	"math"
	"os"
	"testing"

	"twinsearch/internal/arena"
	"twinsearch/internal/core"
	"twinsearch/internal/series"
)

// saveSharded builds a sharded index and writes its stream to a temp
// file, returning the index, the path, and the stream size.
func saveSharded(t *testing.T, ext *series.Extractor, cfg Config) (*Index, string, int64) {
	t.Helper()
	ix, err := Build(ext, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.CreateTemp(t.TempDir(), "subset-*.tsidx")
	if err != nil {
		t.Fatal(err)
	}
	n, err := ix.WriteTo(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return ix, f.Name(), n
}

// TestOpenArenaShardsSelective proves the acceptance criterion: a node
// opening 2 of 4 shards from a mapped file maps strictly less than
// the file, serves exactly its shards' windows, and answers every
// search path identically to a reference index over the same positions.
func TestOpenArenaShardsSelective(t *testing.T) {
	const l = 32
	data := synthetic(3000, 7)
	ext := series.NewExtractor(data, series.NormGlobal)
	ix, path, fileSize := saveSharded(t, ext, Config{Config: core.Config{L: l}, Shards: 4})

	if !arena.MapSupported() {
		t.Skip("no mmap on this platform")
	}
	ar, err := arena.Map(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ar.Close()

	sub, err := OpenArenaShards(ar, ext, nil, []int{2, 1}) // any order in, ascending out
	if err != nil {
		t.Fatal(err)
	}
	if got := sub.ShardIDs(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("ShardIDs = %v, want [1 2]", got)
	}
	if sub.TotalShards() != 4 {
		t.Fatalf("TotalShards = %d, want 4", sub.TotalShards())
	}

	// Selective mapping: only the two assigned segments are viewed, so
	// the mapped footprint must be a strict fraction of the file.
	mb := sub.MappedBytes()
	if mb <= 0 || int64(mb) >= fileSize {
		t.Fatalf("MappedBytes = %d, want in (0, %d)", mb, fileSize)
	}

	lo, _ := ix.Range(1)
	_, hi := ix.Range(2)
	if sub.Windows() != hi-lo {
		t.Fatalf("Windows = %d, range [%d, %d) spans %d", sub.Windows(), lo, hi, hi-lo)
	}

	// Reference: an index over exactly the subset's position range. Any
	// exact index over the same positions answers identically.
	rf, err := core.BuildRange(ext, core.Config{L: l}, lo, hi)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	for _, qp := range []int{100, 1500, 2900} {
		q := ext.ExtractCopy(qp, l)
		for _, eps := range []float64{0.05, 0.3, 1.0} {
			want, wantSt := rf.SearchStats(q, eps)
			got, gotSt, err := sub.SearchStatsCtx(ctx, q, eps)
			if err != nil {
				t.Fatal(err)
			}
			if !sameMatches(want, got) {
				t.Fatalf("q=%d eps=%g: subset %v, reference %v", qp, eps, matchStarts(got), matchStarts(want))
			}
			if gotSt.Results != wantSt.Results || gotSt.Results != len(got) {
				t.Fatalf("q=%d eps=%g: Results=%d, want %d", qp, eps, gotSt.Results, wantSt.Results)
			}
		}
		wantK := rf.SearchTopK(q, 7)
		gotK, err := sub.SearchTopKCtx(ctx, q, 7, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		if !sameMatches(wantK, gotK) {
			t.Fatalf("q=%d topk: subset %v, reference %v", qp, gotK, wantK)
		}
		// Prefix: tree half only; reference likewise.
		short := q[:l/2]
		wantP, err := rf.SearchPrefixTree(short, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		gotP, err := sub.SearchPrefixTreeCtx(ctx, short, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if !sameMatches(wantP, gotP) {
			t.Fatalf("q=%d prefix: subset %v, reference %v", qp, matchStarts(gotP), matchStarts(wantP))
		}
	}
}

// TestOpenArenaShardsNonAdjacent checks a subset whose shards leave a
// gap in the position space: concatenating them in shard order is the
// merge by start of the fully loaded index's per-shard traversals.
func TestOpenArenaShardsNonAdjacent(t *testing.T) {
	const l = 24
	data := synthetic(2200, 11)
	ext := series.NewExtractor(data, series.NormGlobal)
	ix, path, _ := saveSharded(t, ext, Config{Config: core.Config{L: l}, Shards: 4})

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Heap arena: the selective path works on any byte region.
	sub, err := OpenArenaShards(arena.FromBytes(raw), ext, nil, []int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sub.MappedBytes() != 0 {
		t.Fatalf("heap subset reports MappedBytes=%d", sub.MappedBytes())
	}

	q := ext.ExtractCopy(500, l)
	for _, eps := range []float64{0.1, 0.6} {
		w0, _ := ix.Shard(0).SearchStats(q, eps)
		w3, _ := ix.Shard(3).SearchStats(q, eps)
		want := MergeByStart([][]series.Match{w0, w3})
		got, err := sub.SearchCtx(context.Background(), q, eps)
		if err != nil {
			t.Fatal(err)
		}
		if !sameMatches(want, got) {
			t.Fatalf("eps=%g: subset %v, want %v", eps, matchStarts(got), matchStarts(want))
		}
	}
}

// TestOpenArenaShardsRejects sweeps the invalid-assignment and
// unsupported-stream cases.
func TestOpenArenaShardsRejects(t *testing.T) {
	const l = 16
	data := synthetic(600, 3)
	ext := series.NewExtractor(data, series.NormGlobal)
	_, path, _ := saveSharded(t, ext, Config{Config: core.Config{L: l}, Shards: 3})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for name, ids := range map[string][]int{
		"empty":        {},
		"out-of-range": {0, 3},
		"negative":     {-1},
		"duplicate":    {1, 1},
	} {
		if _, err := OpenArenaShards(arena.FromBytes(raw), ext, nil, ids); err == nil {
			t.Errorf("%s assignment accepted", name)
		}
	}

	// Retired container versions have no segment table to skip by; a
	// v3 header must be refused before any segment is interpreted.
	v3 := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint16(v3[4:], 3)
	if _, err := OpenArenaShards(arena.FromBytes(v3), ext, nil, []int{0}); err == nil {
		t.Error("v3 stream opened selectively")
	}
}

// TestSubsetCancellation checks a canceled context stops the fan-out
// with ctx.Err() instead of a partial answer.
func TestSubsetCancellation(t *testing.T) {
	const l = 16
	data := synthetic(800, 5)
	ext := series.NewExtractor(data, series.NormGlobal)
	_, path, _ := saveSharded(t, ext, Config{Config: core.Config{L: l}, Shards: 2})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := OpenArenaShards(arena.FromBytes(raw), ext, nil, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := ext.ExtractCopy(10, l)
	if _, _, err := sub.SearchStatsCtx(ctx, q, 0.3); err != context.Canceled {
		t.Fatalf("SearchStats on canceled ctx: %v", err)
	}
	if _, err := sub.SearchTopKCtx(ctx, q, 3, math.Inf(1)); err != context.Canceled {
		t.Fatalf("SearchTopK on canceled ctx: %v", err)
	}
}

package shard_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"twinsearch"
	"twinsearch/internal/arena"
	"twinsearch/internal/datasets"
	"twinsearch/internal/series"
	"twinsearch/internal/shard"
)

// TestShardedStreamEveryByteGuarded flips every byte of a small saved
// container in turn and opens it as a process and a cluster node do:
// OpenSaved, OpenSavedFile and a node's heap OpenArenaShards — of every
// shard, and of the one shard whose segment holds the byte — must
// refuse every flip. The container header's checksum covers the
// header, partition array and segment table, and every segment guards
// itself (core's TestFrozenStreamEveryByteGuarded) — there is no
// padding in between. OpenSavedFile with MMap must refuse every flip in
// the container header and in the segment headers too.
func TestShardedStreamEveryByteGuarded(t *testing.T) {
	data := datasets.RandomWalk(58, 150)
	opt := twinsearch.Options{L: 11, Shards: 2}
	mapped := opt
	mapped.MMap = true
	eng, err := twinsearch.Open(data, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	ext := series.NewExtractor(data, series.NormGlobal)

	// Segment i spans [segs[i], segs[i+1]): the header is 12 bytes, the
	// boundaries and segment lengths, then a checksum; a segment's own
	// header is its first 120 bytes.
	const shards, segHeader = 2, 120
	segs := []int{12 + 8*(shards+1) + 8*shards + 4}
	for i := range shards {
		segs = append(segs, segs[i]+int(binary.LittleEndian.Uint64(full[12+8*(shards+1)+8*i:])))
	}
	if segs[shards] != len(full) {
		t.Fatalf("segments end at %d, the stream at %d", segs[shards], len(full))
	}

	file, err := os.Create(filepath.Join(t.TempDir(), "index.tssh"))
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	path := file.Name()
	for off := range full {
		c := slices.Clone(full)
		c[off] ^= 0x01
		if _, err := file.WriteAt(c, 0); err != nil {
			t.Fatal(err)
		}
		owner := 0
		for owner+1 < shards && off >= segs[owner+1] {
			owner++
		}
		if _, err := twinsearch.OpenSaved(data, bytes.NewReader(c), opt); err == nil {
			t.Fatalf("OpenSaved accepted byte %d of %d flipped", off, len(full))
		}
		if _, err := twinsearch.OpenSavedFile(data, path, opt); err == nil {
			t.Fatalf("OpenSavedFile accepted byte %d of %d flipped", off, len(full))
		}
		for _, ids := range [][]int{{0, 1}, {owner}} {
			if _, err := shard.OpenArenaShards(arena.FromBytes(c), ext, nil, ids); err == nil {
				t.Fatalf("a node's heap open of shards %v accepted byte %d of %d flipped", ids, off, len(full))
			}
		}
		if inSegment := off - segs[owner]; off < segs[0] || inSegment >= 0 && inSegment < segHeader {
			if _, err := twinsearch.OpenSavedFile(data, path, mapped); err == nil {
				t.Fatalf("a mapped open accepted header byte %d flipped", off)
			}
		}
	}
}

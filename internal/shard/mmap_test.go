package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"twinsearch/internal/arena"
	"twinsearch/internal/core"
	"twinsearch/internal/datasets"
	"twinsearch/internal/series"
)

// TestOpenArenaDifferential opens a saved stream of one or three shards
// through a real mmap and requires every search path to agree with the
// heap-loaded index byte for byte; an append must leave the mapped file
// byte-identical, and a compaction move the rebuilt shard off the mapping.
func TestOpenArenaDifferential(t *testing.T) {
	if !arena.MapSupported() {
		t.Skip("mmap unsupported on this platform")
	}
	ts := datasets.RandomWalk(71, 1800)
	const l = 40
	for _, p := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", p), func(t *testing.T) {
			ext := series.NewExtractor(append([]float64(nil), ts...), series.NormGlobal)
			sh, err := Build(ext, Config{Config: core.Config{L: l}, Shards: p})
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "index.tssh")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sh.WriteTo(f); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			ar, err := arena.Map(path)
			if err != nil {
				t.Fatal(err)
			}
			defer ar.Close()
			got, err := OpenArena(ar, ext, nil)
			if err != nil {
				t.Fatalf("OpenArena: %v", err)
			}
			if got.MappedBytes() == 0 {
				t.Fatal("mapped index reports no mapped bytes")
			}
			if got.MemoryBytes() >= got.MappedBytes() {
				t.Fatalf("mapped index heap bytes %d not below mapped bytes %d", got.MemoryBytes(), got.MappedBytes())
			}

			q := ext.ExtractCopy(444, l)
			wantM, wantS := sh.SearchStats(q, 0.5)
			gotM, gotS := got.SearchStats(q, 0.5)
			if !sameMatches(wantM, gotM) || wantS != gotS {
				t.Fatal("SearchStats diverged between heap and mapped index")
			}
			if w, g := sh.SearchTopK(q, 9), got.SearchTopK(q, 9); !sameMatches(w, g) {
				t.Fatal("SearchTopK diverged between heap and mapped index")
			}
			wp, ws := sh.SearchStats(q[:l/2], 0.5)
			gp, gs := got.SearchStats(q[:l/2], 0.5)
			if !sameMatches(wp, gp) || ws != gs {
				t.Fatal("shorter query diverged between heap and mapped index")
			}
			// Appending in place: the mapped index grows a tail and keeps
			// its mapping; a compaction rebuilds the last shard on the
			// heap. Neither writes to the file.
			mapped := got.MappedBytes()
			ext.Append(0.5, -1.5, 2.5)
			if err := got.Extend(); err != nil {
				t.Fatal(err)
			}
			if err := sh.Extend(); err != nil {
				t.Fatal(err)
			}
			if n := len(got.Search(q, 0.5)); n < len(wantM) {
				t.Fatalf("post-append search lost results: %d < %d", n, len(wantM))
			}
			if got.MappedBytes() != mapped {
				t.Fatalf("an append moved the mapping: %d bytes mapped, %d before", got.MappedBytes(), mapped)
			}
			if err := got.Compact(); err != nil {
				t.Fatal(err)
			}
			if got.MappedBytes() >= mapped {
				t.Fatalf("compaction left the last shard on the mapping (%d of %d bytes still mapped)", got.MappedBytes(), mapped)
			}
			// The heap index shares the grown extractor and answers over
			// it from its tail; the compacted one, from its rebuilt shard.
			if w, g := sh.Search(q, 0.5), got.Search(q, 0.5); !sameMatches(w, g) {
				t.Fatal("Search diverged between the tail and the compacted shard")
			}
			if w, g := sh.SearchTopK(q, 9), got.SearchTopK(q, 9); !sameMatches(w, g) {
				t.Fatal("SearchTopK diverged between the tail and the compacted shard")
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("append wrote through the mapped file")
			}
		})
	}
}

// TestOpenArenaRejectsCorruptStreams damages a valid stream in the
// container layer (the segment layer is fuzzed in core): every case
// must fail cleanly, in a heap and in a mapped arena.
func TestOpenArenaRejectsCorruptStreams(t *testing.T) {
	ts := datasets.RandomWalk(57, 1300)
	const l = 32
	ext := series.NewExtractor(ts, series.NormGlobal)
	sh, err := Build(ext, Config{Config: core.Config{L: l}, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sh.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	segTableOff := 8 + 4 + 8*4 // magic+ver+part+pad, count, 4 boundaries

	mutate := func(off int, val byte) []byte {
		c := append([]byte(nil), full...)
		c[off] = val
		return c
	}
	cases := map[string][]byte{
		"empty":            {},
		"header truncated": full[:10],
		"bad magic":        append([]byte("NOPE"), full[4:]...),
		"bad partition":    mutate(6, 9),
		"version 2":        mutate(4, 2), // retired containers: refused at
		"version 3":        mutate(4, 3), // the header by both loaders
		"version 4":        mutate(4, 4), // (v4: bound rows in time order)
		"version 6":        mutate(4, 6),
		"zero shards": func() []byte {
			c := append([]byte(nil), full...)
			binary.LittleEndian.PutUint32(c[8:], 0)
			return c
		}(),
		"segment table lies": func() []byte {
			c := append([]byte(nil), full...)
			n := binary.LittleEndian.Uint64(c[segTableOff:])
			binary.LittleEndian.PutUint64(c[segTableOff:], n+8)
			return c
		}(),
		"misaligned segment length": func() []byte {
			c := append([]byte(nil), full...)
			binary.LittleEndian.PutUint64(c[segTableOff:], 12345)
			return c
		}(),
		"segments truncated": full[:len(full)-16],
	}
	// Each case as it is (the header checksum refuses most) and with
	// the checksum recomputed, so the validation it targets must.
	for name, stream := range cases {
		for form, stream := range map[string][]byte{"": stream, " (resealed)": reseal(stream)} {
			if _, err := OpenArena(arena.FromBytes(stream), ext, nil); err == nil {
				t.Errorf("a heap OpenArena accepted %s%s", name, form)
			}
			if _, err := OpenArena(mapStream(t, stream), ext, nil); err == nil {
				t.Errorf("a mapped OpenArena accepted %s%s", name, form)
			}
		}
	}
	if _, err := OpenArena(arena.FromBytes(reseal(full)), ext, nil); err != nil {
		t.Fatalf("resealing an undamaged stream broke it: %v", err)
	}
}

// mapStream writes stream to a temporary file and opens it as a mapped
// arena (a heap one where the file cannot be mapped) that lives until
// the test ends.
func mapStream(t testing.TB, stream []byte) *arena.Arena {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stream")
	if err := os.WriteFile(path, stream, 0o644); err != nil {
		t.Fatal(err)
	}
	ar, err := arena.Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ar.Close() })
	return ar
}

// reseal recomputes the container header's checksum over whatever the
// (possibly damaged) header now claims to span — what a hostile writer
// would do, and how a damaged case gets past the checksum to the
// validation it is aimed at.
func reseal(stream []byte) []byte {
	c := append([]byte(nil), stream...)
	if len(c) < 12 {
		return c
	}
	count := binary.LittleEndian.Uint32(c[8:])
	if count == 0 || count > maxShards {
		return c
	}
	hl := headerLen(int(count))
	if hl > int64(len(c)) {
		return c
	}
	binary.LittleEndian.PutUint32(c[hl-4:], crc32.Checksum(c[:hl-4], castagnoli))
	return c
}

// markMeanSorted returns a copy of a TSSH v5 stream whose partition
// byte says mean-sorted — the first thing a loader sees of a file saved
// with the retired scheme (the bytes after it are never read).
func markMeanSorted(stream []byte) []byte {
	c := append([]byte(nil), stream...)
	c[6] = partitionMean
	return c
}

// TestMeanSortedStreamRefused: a container whose partition byte names
// the retired mean-sorted scheme is refused at the header by every open
// with one text naming the scheme and the rebuild command — resealed or
// not, since the refusal precedes the checksum.
func TestMeanSortedStreamRefused(t *testing.T) {
	ext := series.NewExtractor(datasets.RandomWalk(58, 150), series.NormGlobal)
	sh, err := Build(ext, Config{Config: core.Config{L: 11}, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sh.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, stream := range [][]byte{markMeanSorted(buf.Bytes()), reseal(markMeanSorted(buf.Bytes()))} {
		_, heapErr := OpenArena(arena.FromBytes(stream), ext, nil)
		_, mappedErr := OpenArena(mapStream(t, stream), ext, nil)
		_, subsetErr := OpenArenaShards(arena.FromBytes(stream), ext, nil, []int{0})
		for _, err := range []error{heapErr, mappedErr, subsetErr} {
			if err == nil || err.Error() != heapErr.Error() {
				t.Fatalf("opens disagree on a mean-sorted stream: %v / %v / %v", heapErr, mappedErr, subsetErr)
			}
		}
		for _, want := range []string{"mean-sorted", "-saveindex"} {
			if !strings.Contains(heapErr.Error(), want) {
				t.Fatalf("refusal %q does not mention %q", heapErr, want)
			}
		}
	}
}

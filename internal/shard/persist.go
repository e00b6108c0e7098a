package shard

// Sharded index persistence: a small header naming the partition, a
// segment table, and each shard's frozen stream. The container is
// mappable: the header records every segment's byte length, segments
// start 8-byte aligned relative to the file start, and each segment is
// an aligned TSFZ v4 stream — so OpenArena points every shard's arrays
// straight into one arena: a heap buffer the file was read into, or an
// mmap'd file region opened with O(header) allocation. Like the
// single-index format, the series itself is not embedded; every open
// revalidates each shard against the supplied extractor.
//
// Format (version 5, little-endian; version 4 held TSFZ v3 segments,
// whose bound rows were in time order, and is not read):
//
//	off 0  magic "TSSH", version u16
//	off 6  partition u8 (0 = contiguous ranges; 1 = mean-sorted runs,
//	       a retired scheme refused on load), reserved u8 (0)
//	off 8  shardCount u32
//	       (shardCount+1) × u64 range boundaries
//	       shardCount × u64 segment byte lengths
//	       CRC32C u32 of every byte above
//	       shardCount × segments (TSFZ v4, each length a multiple of 8)
//
// The header is 16 + 8·k bytes, so the first segment starts aligned
// with no padding, and with the segments' own checksums (see core's
// frozen_persist.go) no byte of a file is unguarded. Every open verifies
// the container header's checksum; what else it verifies is decided by
// the arena's kind, exactly as core.OpenFrozen documents: a heap
// arena gets every opened segment's section checksums, its full
// invariants and the partition's ownership scan (checkPartition), a
// mapped one the segment headers, their structure and the partition's
// shape (checkShape).

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"twinsearch/internal/arena"
	"twinsearch/internal/core"
	"twinsearch/internal/exec"
	"twinsearch/internal/series"
)

// Magic is the stream prefix identifying a sharded index; callers that
// accept both formats sniff it to dispatch (see twinsearch.OpenSaved).
const Magic = "TSSH"

// PersistVersion is the one container version written and read.
const PersistVersion = 5

// castagnoli is the CRC32C table of the container header's checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// The partition byte. Only partitionRange is written; partitionMean is
// what files saved with the retired mean-sorted scheme carry, kept as
// the value parseShardHeader refuses by name.
const (
	partitionRange = 0
	partitionMean  = 1
)

// maxShards bounds the header's shard count on load; real shard counts
// are a small multiple of the core count, so anything enormous is a
// corrupt or hostile stream, rejected before allocation.
const maxShards = 1 << 20

// headerLen returns the byte length of the fixed header, boundary
// array, segment table and checksum for count shards — the offset of
// the first segment, a multiple of 8.
func headerLen(count int) int64 {
	n := int64(8)           // magic, version, partition, reserved, shardCount is at 8
	n += 4                  // shardCount
	n += 8 * int64(count+1) // boundaries
	n += 8 * int64(count)   // segment table
	return n + 4            // checksum
}

// WriteTo serializes the sharded index in the current (v5, mappable)
// format, compacting any tail into the last shard first. It implements
// io.WriterTo, for an Index holding every shard.
func (s *Index) WriteTo(w io.Writer) (int64, error) {
	if err := s.Compact(); err != nil {
		return 0, err
	}
	b := s.base.Load()
	le := binary.LittleEndian
	hdr := append(make([]byte, 0, headerLen(len(b.frozen))), Magic...)
	hdr = append(le.AppendUint16(hdr, PersistVersion), partitionRange, 0)
	hdr = le.AppendUint32(hdr, uint32(len(b.frozen)))
	for _, at := range b.starts {
		hdr = le.AppendUint64(hdr, uint64(at))
	}
	// Segment table: frozen stream lengths are deterministic, so the
	// table precedes the segments without buffering them.
	for _, f := range b.frozen {
		hdr = le.AppendUint64(hdr, uint64(f.StreamLen()))
	}
	hdr = le.AppendUint32(hdr, crc32.Checksum(hdr, castagnoli))
	n, err := w.Write(hdr)
	written := int64(n)
	if err != nil {
		return written, err
	}
	for i, f := range b.frozen {
		seg, err := f.WriteTo(w)
		written += seg
		if err == nil && seg != f.StreamLen() {
			err = fmt.Errorf("wrote %d bytes, table says %d", seg, f.StreamLen())
		}
		if err != nil {
			return written, fmt.Errorf("shard: writing shard %d: %w", i, err)
		}
	}
	return written, nil
}

// shardHeader is the decoded container header.
type shardHeader struct {
	count   int
	starts  []int
	segLens []int64
}

// parseShardHeader decodes and validates the container header at the
// head of buf, its checksum last, over every byte the fields came from.
func parseShardHeader(buf []byte) (shardHeader, error) {
	var h shardHeader
	le := binary.LittleEndian
	// magic, version u16, partition u8, reserved u8, shardCount u32
	if len(buf) < 12 {
		return h, fmt.Errorf("shard: load: %d-byte stream, shorter than a header", len(buf))
	}
	if string(buf[:4]) != Magic {
		return h, fmt.Errorf("shard: load: bad magic %q", buf[:4])
	}
	if v := le.Uint16(buf[4:]); v != PersistVersion {
		return h, fmt.Errorf("shard: load: unsupported version %d", v)
	}
	switch buf[6] {
	case partitionRange:
	case partitionMean:
		return h, fmt.Errorf("shard: load: the index was saved with mean-sorted shard partitioning (partition scheme %d), which is no longer read; only contiguous partitions are — rebuild it from its series: tsquery -series S -qstart 0 -l L -shards N -saveindex F", partitionMean)
	default:
		return h, fmt.Errorf("shard: load: unknown partition scheme %d", buf[6])
	}
	count := le.Uint32(buf[8:])
	if count == 0 || count > maxShards {
		return h, fmt.Errorf("shard: load: implausible shard count %d", count)
	}
	h.count = int(count)
	hl := headerLen(h.count)
	if int64(len(buf)) < hl {
		return h, fmt.Errorf("shard: load header: %d-byte stream, a %d-shard header takes %d", len(buf), h.count, hl)
	}
	at := 12
	h.starts = make([]int, h.count+1)
	for i := range h.starts {
		h.starts[i] = int(le.Uint64(buf[at:]))
		at += 8
	}
	h.segLens = make([]int64, h.count)
	for i := range h.segLens {
		n := le.Uint64(buf[at:])
		at += 8
		if n == 0 || n%8 != 0 || n > math.MaxInt64 {
			return h, fmt.Errorf("shard: load: implausible segment length %d for shard %d", n, i)
		}
		h.segLens[i] = int64(n)
	}
	if got, recorded := crc32.Checksum(buf[:at], castagnoli), le.Uint32(buf[at:]); got != recorded {
		return h, fmt.Errorf("shard: load: header checksum %08x, recorded %08x: the file is damaged", got, recorded)
	}
	return h, nil
}

// OpenArena opens a saved sharded index: it interprets a TSSH v5 stream
// occupying the whole arena as a sharded index whose per-shard arrays
// are views directly into the region — on a mapping, opening a
// multi-gigabyte index costs O(header) allocations and faults pages in
// on demand. The caller owns ar and must keep it alive (and unclosed)
// for the index's lifetime; ex nil selects the process-wide default
// executor. The open runs on ex too: a heap arena's containment check
// is cut into units there (core.OpenFrozen).
//
// Each shard is validated as core.OpenFrozen validates it, and the
// partition as the arena's kind decides: the full ownership scan on a
// heap arena, the O(shards) shape on a mapped one, whose O(windows)
// scan is trusted to the writer with the bound containment.
func OpenArena(ar *arena.Arena, ext *series.Extractor, ex *exec.Executor) (*Index, error) {
	return openArena(ar, ext, ex, nil)
}

// OpenArenaShards is OpenArena for the shards listed in assigned
// (the container's indices, any order, no duplicates) — the unit a
// cluster node serves. Unassigned segments are skipped by the segment
// table's lengths alone: their bytes are never read, validated or
// viewed, and under a file mapping their pages are never faulted in, so
// opening N of P shards costs O(N segments), not O(file). The Index
// answers for the assigned shards only; do not grow it (Extend,
// Compact) or WriteTo it.
func OpenArenaShards(ar *arena.Arena, ext *series.Extractor, ex *exec.Executor, assigned []int) (*Index, error) {
	if len(assigned) == 0 {
		return nil, fmt.Errorf("shard: no shards assigned")
	}
	return openArena(ar, ext, ex, assigned)
}

// openArena opens the shards assigned (nil: every shard) of the TSSH v5
// stream occupying ar.
func openArena(ar *arena.Arena, ext *series.Extractor, ex *exec.Executor, assigned []int) (*Index, error) {
	if ex == nil {
		ex = exec.Default()
	}
	buf := ar.Bytes()
	h, err := parseShardHeader(buf)
	if err != nil {
		return nil, err
	}
	var ids []int
	if assigned != nil {
		ids = append([]int(nil), assigned...)
		sort.Ints(ids)
		for i, id := range ids {
			if id < 0 || id >= h.count {
				return nil, fmt.Errorf("shard: assigned shard %d out of range [0, %d)", id, h.count)
			}
			if i > 0 && id == ids[i-1] {
				return nil, fmt.Errorf("shard: shard %d assigned twice", id)
			}
		}
	}

	off := headerLen(h.count)
	var frozen []*core.Frozen
	l := 0
	for i := 0; i < h.count && (ids == nil || len(frozen) < len(ids)); i++ {
		if off > int64(len(buf)) {
			return nil, fmt.Errorf("shard: arena: segment %d starts at %d, region has %d bytes", i, off, len(buf))
		}
		if ids != nil && i != ids[len(frozen)] {
			off += h.segLens[i] // not ours: step over it
			continue
		}
		f, n, err := core.OpenFrozen(ar, off, ext, ex)
		if err != nil {
			return nil, fmt.Errorf("shard: opening shard %d: %w", i, err)
		}
		if n != h.segLens[i] {
			return nil, fmt.Errorf("shard: arena: shard %d spans %d bytes, table says %d", i, n, h.segLens[i])
		}
		if len(frozen) == 0 {
			l = f.L()
		} else if f.L() != l {
			return nil, fmt.Errorf("shard: shard %d has L=%d, the first opened has L=%d", i, f.L(), l)
		}
		frozen = append(frozen, f)
		off += n
	}

	s := assemble(ext, l, frozen, ids, h.starts, ex)
	check := s.checkPartition // a heap arena is verified in full
	if ar.Mapped() {
		check = s.checkShape
	}
	if err := check(s.base.Load(), series.NumSubsequences(ext.Len(), l)); err != nil {
		return nil, fmt.Errorf("shard: arena: %w", err)
	}
	return s, nil
}

// Single opens the single-index (TSFZ) stream occupying ar as a
// one-shard Index, validated as core.OpenFrozen validates it on ex (nil:
// the process-wide default executor), which the Index then queries on.
// The stream must cover every window of its series; an arena holding
// only part of them (one segment lifted out of a sharded container)
// would answer silently short, so it is refused. As in OpenArena, a
// heap arena also gets the ownership scan (checkPartition), a mapped
// one the shape only.
func Single(ar *arena.Arena, ext *series.Extractor, ex *exec.Executor) (*Index, error) {
	if ex == nil {
		ex = exec.Default()
	}
	f, _, err := core.OpenFrozen(ar, 0, ext, ex)
	if err != nil {
		return nil, err
	}
	count := series.NumSubsequences(ext.Len(), f.L())
	s := assemble(ext, f.L(), []*core.Frozen{f}, nil, []int{0, count}, ex)
	check := s.checkPartition
	if ar.Mapped() {
		check = s.checkShape
	}
	if err := check(s.base.Load(), count); err != nil {
		return nil, err
	}
	return s, nil
}

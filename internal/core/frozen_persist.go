package core

// Index persistence — an extension beyond the paper, whose indexes live
// for one experiment: construction is the expensive phase, so a built
// index is saved and reopened against the same series. The frozen arena
// serializes as its backing arrays, so saving is a handful of sequential
// writes and loading decodes nothing: the stream's sections are 8-byte
// aligned and offset-addressed, so OpenFrozen points the arrays
// directly into the arena holding the stream — a heap buffer the file
// was read into, or an mmap'd file region, where the open costs
// O(header) allocations however large the index is. This is the stream
// the sharded TSSH v5 format embeds per shard, and the only version read
// (twinsearch.OpenSaved names any other in its refusal).
//
// Format (version 4, little-endian; all sections 8-byte aligned relative
// to the stream start, which mmap's page alignment promotes to absolute
// alignment):
//
//	off 0   magic "TSFZ"
//	off 4   version u16 (= 4)
//	off 6   mode u8, reserved u8 (0)
//	off 8   L u32, MinCap u32, MaxCap u32, height u32
//	off 24  size u64, seriesLen u64
//	off 40  nodeCount u32, leafStart u32
//	off 48  firstOff, countOff, positionsOff, upperOff, lowerOff u64
//	off 88  totalLen u64
//	off 96  CRC32C of each section, in section order, 5 × u32
//	off 116 CRC32C of header bytes [0, 116) u32
//	off 120 sections, each at its recorded offset, zero-padded to the next:
//	        first     nodeCount × i32
//	        count     nodeCount × i32
//	        positions size × i32
//	        upper     nodeCount·L × f32, rounded toward +Inf
//	        lower     nodeCount·L × f32, rounded toward −Inf
//
// Each node's L bound lanes are stored in the spread lane order (see
// lanes.go): lane k holds series lane k·s mod L. Version 4 records that
// order; version 3 held the same bounds in time order and is not read.
//
// The section offsets are recorded for self-description but are not
// trusted: the loader recomputes the canonical layout from the counts
// and rejects any stream whose offsets disagree, so a hostile header
// cannot alias sections or point them outside the stream.
//
// A section's checksum (Castagnoli) covers its bytes through the next
// section's offset — the zero padding included, so no byte of a stream
// is unguarded. The series itself is not embedded. How much an open
// verifies is decided by the arena's kind:
//
//   - a heap arena's bytes are resident already, so every section's
//     checksum is verified (naming the one that fails) and the full
//     invariants are checked against the supplied extractor
//     (Frozen.CheckInvariants);
//   - a mapped arena gets the header's checksum and the structural
//     (memory-safety) half (Frozen.CheckStructure): hashing it would
//     read every page the mapping exists not to touch. A stream it
//     accepts traverses safely, and verifying a mapped shard on first
//     touch needs nothing more from the format.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"twinsearch/internal/arena"
	"twinsearch/internal/exec"
	"twinsearch/internal/series"
)

// FrozenMagic is the stream prefix identifying a frozen single index;
// callers that accept several formats sniff it to dispatch (see
// twinsearch.OpenSaved).
const FrozenMagic = "TSFZ"

const (
	FrozenVersion = 4

	// frozenHeaderSize is the fixed header length; the first section
	// starts here, already 8-byte aligned. The checksums are its last
	// 24 bytes: one per section, then the header's own.
	frozenHeaderSize  = 120
	frozenSectionCRCs = 96
	frozenHeaderCRC   = 116
)

// castagnoli is the CRC32C table every stream checksum uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxFrozenHeight bounds the recorded tree height on load; with
// MaxCap ≥ 3 even a billion-window index stays under 20 levels, so
// anything past this is a corrupt or hostile stream, rejected before
// the node-count plausibility check multiplies by it.
const maxFrozenHeight = 64

// frozenSections names the five sections in stream order.
var frozenSections = [5]string{"first", "count", "positions", "upper", "lower"}

// sectionCounts is each section's element count, in stream order, for
// an arena with nn nodes, np positions, and subsequence length l. Every
// element is 4 bytes wide.
func sectionCounts(nn, np, l int) [5]int { return [5]int{nn, nn, np, nn * l, nn * l} }

// frozenLayout is the canonical section placement: the five section
// offsets in stream order, then the stream's total length. Section i
// (and its padding) spans [lo[i], lo[i+1]). The writer and the loader
// both derive it from the counts alone.
type frozenLayout [6]int64

func layoutFrozen(nn, np, l int) frozenLayout {
	lo := frozenLayout{frozenHeaderSize}
	for i, n := range sectionCounts(nn, np, l) {
		lo[i+1] = arena.Align8(lo[i] + 4*int64(n))
	}
	return lo
}

func (lo frozenLayout) totalLen() int64 { return lo[5] }

// sections returns where a loader attaches the arrays, in stream order:
// the three structure arrays, then the two bound arrays.
func (f *Frozen) sections() ([3]*[]int32, [2]*[]float32) {
	return [3]*[]int32{&f.first, &f.count, &f.positions}, [2]*[]float32{&f.upper, &f.lower}
}

// StreamLen returns the exact byte length WriteTo will produce — the
// layout is deterministic in the array sizes, so container formats
// (TSSH v5) can write segment tables ahead of the segments.
func (f *Frozen) StreamLen() int64 {
	return layoutFrozen(len(f.first), len(f.positions), f.cfg.L).totalLen()
}

// WriteTo serializes the frozen index in the current (v4) format. It
// implements io.WriterTo.
func (f *Frozen) WriteTo(w io.Writer) (int64, error) {
	nn := len(f.first)
	lo := layoutFrozen(nn, len(f.positions), f.cfg.L)
	hdr := make([]byte, frozenHeaderSize)
	copy(hdr, FrozenMagic)
	binary.LittleEndian.PutUint16(hdr[4:], FrozenVersion)
	hdr[6] = uint8(f.ext.Mode())
	binary.LittleEndian.PutUint32(hdr[8:], uint32(f.cfg.L))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(f.cfg.MinCap))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(f.cfg.MaxCap))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(f.height))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(f.size))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(f.ext.Len()))
	binary.LittleEndian.PutUint32(hdr[40:], uint32(nn))
	binary.LittleEndian.PutUint32(hdr[44:], uint32(f.leafStart))
	for i, off := range lo {
		binary.LittleEndian.PutUint64(hdr[48+8*i:], uint64(off))
	}
	// The header carries every section's checksum, so each section is
	// encoded — padding and all — before the first byte goes out.
	out := [][]byte{hdr}
	for i, arr := range []any{f.first, f.count, f.positions, f.upper, f.lower} {
		span := lo[i+1] - lo[i]
		sec, err := binary.Append(make([]byte, 0, span), binary.LittleEndian, arr)
		if err != nil {
			return 0, fmt.Errorf("core: frozen writer: %s: %w", frozenSections[i], err)
		}
		sec = sec[:span] // the spare capacity is the zero padding
		binary.LittleEndian.PutUint32(hdr[frozenSectionCRCs+4*i:], crc32.Checksum(sec, castagnoli))
		out = append(out, sec)
	}
	binary.LittleEndian.PutUint32(hdr[frozenHeaderCRC:], crc32.Checksum(hdr[:frozenHeaderCRC], castagnoli))
	var written int64
	for _, b := range out {
		n, err := w.Write(b)
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// frozenHeader is the decoded, validated fixed header.
type frozenHeader struct {
	cfg                  Config
	height               uint32
	size                 uint64
	nodeCount, leafStart uint32
	layout               frozenLayout
	crcs                 [5]uint32 // per section, stream order
}

// parseFrozenHeader runs every header-level check, whatever the arena,
// on the frozenHeaderSize bytes at the head of a stream: identity
// (magic and version first, so a stream of another kind is refused by
// name), the header's own checksum, extractor agreement, parameter
// plausibility (nothing in the header may command a large allocation
// or an out-of-range index), and that the recorded section offsets are
// exactly the canonical layout.
func parseFrozenHeader(hdr []byte, ext *series.Extractor) (frozenHeader, error) {
	var h frozenHeader
	if string(hdr[:4]) != FrozenMagic {
		return h, fmt.Errorf("core: load frozen: bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != FrozenVersion {
		return h, fmt.Errorf("core: load frozen: unsupported version %d", v)
	}
	if got, want := crc32.Checksum(hdr[:frozenHeaderCRC], castagnoli), binary.LittleEndian.Uint32(hdr[frozenHeaderCRC:]); got != want {
		return h, fmt.Errorf("core: load frozen: header checksum %08x, recorded %08x: the file is damaged", got, want)
	}
	mode := series.NormMode(hdr[6])
	h.cfg = Config{L: int(binary.LittleEndian.Uint32(hdr[8:])),
		MinCap: int(binary.LittleEndian.Uint32(hdr[12:])), MaxCap: int(binary.LittleEndian.Uint32(hdr[16:]))}
	h.height = binary.LittleEndian.Uint32(hdr[20:])
	h.size = binary.LittleEndian.Uint64(hdr[24:])
	seriesLen := binary.LittleEndian.Uint64(hdr[32:])
	h.nodeCount = binary.LittleEndian.Uint32(hdr[40:])
	h.leafStart = binary.LittleEndian.Uint32(hdr[44:])
	var offs frozenLayout
	for i := range offs {
		offs[i] = int64(binary.LittleEndian.Uint64(hdr[48+8*i:]))
	}
	for i := range h.crcs {
		h.crcs[i] = binary.LittleEndian.Uint32(hdr[frozenSectionCRCs+4*i:])
	}

	if mode != ext.Mode() {
		return h, fmt.Errorf("core: load frozen: index built under %v, extractor is %v", mode, ext.Mode())
	}
	if int(seriesLen) != ext.Len() {
		return h, fmt.Errorf("core: load frozen: index built over %d points, series has %d", seriesLen, ext.Len())
	}
	// fill also bounds MaxCap, which sizes a rebuilt tree's blocks.
	if err := h.cfg.fill(); err != nil {
		return h, fmt.Errorf("core: load frozen: %w", err)
	}
	if ext.Len() < h.cfg.L {
		return h, fmt.Errorf("core: load frozen: series length %d shorter than subsequence length %d", ext.Len(), h.cfg.L)
	}
	maxPos := series.NumSubsequences(ext.Len(), h.cfg.L)
	// Plausibility gates before anything allocates or indexes: a hostile
	// header must not command a multi-gigabyte allocation. A legitimate
	// tree has at most size leaves and fewer internal nodes per level
	// than the level below, so (size+1)·(height+1) over-covers every
	// valid shape.
	if h.size > uint64(maxPos) {
		return h, fmt.Errorf("core: load frozen: %d entries for a series with %d windows", h.size, maxPos)
	}
	if h.height > maxFrozenHeight {
		return h, fmt.Errorf("core: load frozen: implausible height %d", h.height)
	}
	if uint64(h.nodeCount) > (h.size+1)*uint64(h.height+1) {
		return h, fmt.Errorf("core: load frozen: implausible node count %d for %d entries", h.nodeCount, h.size)
	}
	if uint64(h.leafStart) > uint64(h.nodeCount) {
		return h, fmt.Errorf("core: load frozen: leafStart %d exceeds node count %d", h.leafStart, h.nodeCount)
	}
	h.layout = layoutFrozen(int(h.nodeCount), int(h.size), h.cfg.L)
	if offs != h.layout {
		return h, fmt.Errorf("core: load frozen: section offsets %v differ from the canonical layout %v", offs, h.layout)
	}
	return h, nil
}

// FrozenFromArena is OpenFrozen checking containment inline (a nil
// executor): a stub kept only because bench/'s ladder calls it with
// this signature. The bench/ rebuild deletes it.
func FrozenFromArena(ar *arena.Arena, off int64, ext *series.Extractor) (*Frozen, int64, error) {
	return OpenFrozen(ar, off, ext, nil)
}

// OpenFrozen opens a saved single index: it interprets the TSFZ v4
// stream at byte offset off of ar as a Frozen whose arrays are views
// directly into the arena — no decoding, no copying, O(header) heap
// allocation however large the index. It returns the frozen index and
// the stream's total length (so callers walking a container format can
// find the next segment). The extractor must present the same series
// (length) and normalization mode the index was built with.
//
// The caller owns ar and must keep it alive (and unclosed) for the
// Frozen's lifetime. The header's checksum and the structural
// (memory-safety) invariants are validated before the index is
// returned; on a heap arena so are every section's checksum and the
// O(size·L) bound containment, which a mapped arena leaves unread — see
// the package comment above and Frozen.CheckStructure. The checksums
// and the containment check run as units on ex (Frozen.CheckContainment;
// nil: inline), so the open uses at most ex.Workers() executor workers
// beside the calling goroutine, and refuses a file with the same text at
// any width.
func OpenFrozen(ar *arena.Arena, off int64, ext *series.Extractor, ex *exec.Executor) (*Frozen, int64, error) {
	buf := ar.Bytes()
	if off < 0 || off > int64(len(buf)) || int64(len(buf))-off < frozenHeaderSize {
		return nil, 0, fmt.Errorf("core: frozen arena: %d-byte region at offset %d too small for a header", len(buf), off)
	}
	h, err := parseFrozenHeader(buf[off:off+frozenHeaderSize], ext)
	if err != nil {
		return nil, 0, err
	}
	lo := h.layout
	if lo.totalLen() > int64(len(buf))-off {
		return nil, 0, fmt.Errorf("core: frozen arena: stream of %d bytes truncated at %d", lo.totalLen(), int64(len(buf))-off)
	}
	// A heap arena is resident already, so every byte is verified: the
	// section checksums run as one unit on ex beside the structural and
	// containment checks (inline, first, when ex is nil). The checks are
	// memory-safe on any bytes — CheckStructure proves every position
	// before CheckContainment reads a window at one — so they need not
	// wait, and a checksum failure is the error whenever there is one.
	heap := !ar.Mapped()
	var sumErr error
	var sums *exec.Group
	if heap {
		if ex == nil {
			if err := h.checkSections(buf[off:]); err != nil {
				return nil, 0, err
			}
		} else {
			sums = ex.NewGroup()
			sums.Go(func(*exec.Ctx) { sumErr = h.checkSections(buf[off:]) })
		}
	}
	f, err := h.attach(ar, off, ext)
	if err == nil {
		err = f.CheckStructure()
		if err == nil && heap {
			err = f.CheckContainment(ex)
		}
		if err != nil {
			err = fmt.Errorf("core: frozen arena: stream is inconsistent with the supplied series: %w", err)
		}
	}
	if sums != nil {
		sums.Wait()
	}
	if sumErr != nil {
		return nil, 0, sumErr
	}
	if err != nil {
		return nil, 0, err
	}
	return f, lo.totalLen(), nil
}

// checkSections verifies every section's checksum over the stream
// starting at stream[0], naming the first that fails.
func (h frozenHeader) checkSections(stream []byte) error {
	lo := h.layout
	for i, want := range h.crcs {
		if got := crc32.Checksum(stream[lo[i]:lo[i+1]], castagnoli); got != want {
			return fmt.Errorf("core: load frozen: section %s checksum %08x, recorded %08x: the file is damaged", frozenSections[i], got, want)
		}
	}
	return nil
}

// attach starts the index the header describes, its arrays viewing the
// stream at byte offset off of ar.
func (h frozenHeader) attach(ar *arena.Arena, off int64, ext *series.Extractor) (*Frozen, error) {
	f := &Frozen{ext: ext, cfg: h.cfg, size: int(h.size), height: int(h.height), leafStart: int32(h.leafStart), backing: ar}
	structure, bounds := f.sections()
	var err error
	for i, n := range sectionCounts(int(h.nodeCount), f.size, f.cfg.L) {
		if i < len(structure) {
			*structure[i], err = ar.Int32s(off+h.layout[i], n)
		} else {
			*bounds[i-len(structure)], err = ar.Float32s(off+h.layout[i], n)
		}
		if err != nil {
			return nil, fmt.Errorf("core: frozen arena: %w", err)
		}
	}
	return f, nil
}

package core

// Index persistence — an extension beyond the paper, whose indexes live
// for one experiment: construction is the expensive phase, so a built
// index is saved and reopened against the same series. The frozen arena
// serializes as its backing arrays, so saving is a handful of sequential
// writes and loading is either a sequential read straight into final
// heap slices (LoadFrozen) or no read at all: the stream's sections are
// 8-byte aligned and offset-addressed, so FrozenFromArena points the
// arrays directly at an mmap'd file region and the open costs O(header)
// allocations however large the index is. This is the stream the
// sharded TSSH v3 format embeds per shard, and the only version read
// (twinsearch.OpenSaved names any other in its refusal).
//
// Format (version 2, little-endian; all sections 8-byte aligned relative
// to the stream start, which mmap's page alignment promotes to absolute
// alignment):
//
//	off 0   magic "TSFZ"
//	off 4   version u16 (= 2)
//	off 6   mode u8, reserved u8 (0)
//	off 8   L u32, MinCap u32, MaxCap u32, height u32
//	off 24  size u64, seriesLen u64
//	off 40  nodeCount u32, leafStart u32
//	off 48  firstOff, countOff, positionsOff, upperOff, lowerOff u64
//	off 88  totalLen u64
//	off 96  sections, each at its recorded offset, zero-padded between:
//	        first     nodeCount × i32
//	        count     nodeCount × i32
//	        positions size × i32
//	        upper     nodeCount·L × f64
//	        lower     nodeCount·L × f64
//
// The section offsets are recorded for self-description but are not
// trusted: both loaders recompute the canonical layout from the counts
// and reject any stream whose offsets disagree, so a hostile header
// cannot alias sections or point them outside the stream.
//
// The series itself is not embedded. LoadFrozen validates the full
// invariants against the supplied extractor before returning;
// FrozenFromArena validates the structural (memory-safety) half — see
// Frozen.CheckStructure for the split.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"twinsearch/internal/arena"
	"twinsearch/internal/series"
)

// FrozenMagic is the stream prefix identifying a frozen single index;
// callers that accept several formats sniff it to dispatch (see
// twinsearch.OpenSaved).
const FrozenMagic = "TSFZ"

const (
	FrozenVersion = 2

	// frozenHeaderSize is the fixed header length; the first section
	// starts here, already 8-byte aligned.
	frozenHeaderSize = 96
)

// maxFrozenHeight bounds the recorded tree height on load; with
// MaxCap ≥ 3 even a billion-window index stays under 20 levels, so
// anything past this is a corrupt or hostile stream, rejected before
// the node-count plausibility check multiplies by it.
const maxFrozenHeight = 64

// frozenLayout is the canonical v2 section placement for an arena with
// nn nodes, np positions, and subsequence length l. Both the writer and
// the loaders derive it from the counts alone.
type frozenLayout struct {
	firstOff, countOff, positionsOff, upperOff, lowerOff, totalLen int64
}

func layoutFrozen(nn, np, l int64) frozenLayout {
	var lo frozenLayout
	lo.firstOff = frozenHeaderSize
	lo.countOff = arena.Align8(lo.firstOff + 4*nn)
	lo.positionsOff = arena.Align8(lo.countOff + 4*nn)
	lo.upperOff = arena.Align8(lo.positionsOff + 4*np)
	lo.lowerOff = lo.upperOff + 8*nn*l
	lo.totalLen = lo.lowerOff + 8*nn*l
	return lo
}

// StreamLen returns the exact byte length WriteTo will produce — the
// layout is deterministic in the array sizes, so container formats
// (TSSH v3) can write segment tables ahead of the segments.
func (f *Frozen) StreamLen() int64 {
	return layoutFrozen(int64(len(f.first)), int64(len(f.positions)), int64(f.cfg.L)).totalLen
}

// WriteTo serializes the frozen index in the current (v2, aligned)
// format. It implements io.WriterTo.
func (f *Frozen) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &countWriter{w: bw}

	nn := int64(len(f.first))
	lo := layoutFrozen(nn, int64(len(f.positions)), int64(f.cfg.L))
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
	for i, off := range []int64{lo.firstOff, lo.countOff, lo.positionsOff, lo.upperOff, lo.lowerOff, lo.totalLen} {
		binary.LittleEndian.PutUint64(hdr[48+8*i:], uint64(off))
	}
	if _, err := cw.Write(hdr); err != nil {
		return cw.n, err
	}
	for _, sec := range []struct {
		off int64
		arr interface{}
	}{
		{lo.firstOff, f.first}, {lo.countOff, f.count}, {lo.positionsOff, f.positions},
		{lo.upperOff, f.upper}, {lo.lowerOff, f.lower},
	} {
		if err := padTo(cw, sec.off); err != nil {
			return cw.n, err
		}
		if err := binary.Write(cw, binary.LittleEndian, sec.arr); err != nil {
			return cw.n, err
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// countWriter tracks bytes written for WriteTo's contract.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// padTo writes zero bytes until the counting writer reaches off.
func padTo(cw *countWriter, off int64) error {
	if cw.n > off {
		return fmt.Errorf("core: frozen writer overran section offset %d (at %d)", off, cw.n)
	}
	var zeros [8]byte
	for cw.n < off {
		n := off - cw.n
		if n > int64(len(zeros)) {
			n = int64(len(zeros))
		}
		if _, err := cw.Write(zeros[:n]); err != nil {
			return err
		}
	}
	return nil
}

// frozenHeader is the decoded, not-yet-validated fixed header shared by
// both entry points.
type frozenHeader struct {
	mode                 uint8
	l, minCap, maxCap    uint32
	height               uint32
	size                 uint64
	seriesLen            uint64
	nodeCount, leafStart uint32
	offs                 [6]uint64 // first, count, positions, upper, lower, totalLen
}

func decodeFrozenHeader(hdr []byte) frozenHeader {
	var h frozenHeader
	h.mode = hdr[6]
	h.l = binary.LittleEndian.Uint32(hdr[8:])
	h.minCap = binary.LittleEndian.Uint32(hdr[12:])
	h.maxCap = binary.LittleEndian.Uint32(hdr[16:])
	h.height = binary.LittleEndian.Uint32(hdr[20:])
	h.size = binary.LittleEndian.Uint64(hdr[24:])
	h.seriesLen = binary.LittleEndian.Uint64(hdr[32:])
	h.nodeCount = binary.LittleEndian.Uint32(hdr[40:])
	h.leafStart = binary.LittleEndian.Uint32(hdr[44:])
	for i := range h.offs {
		h.offs[i] = binary.LittleEndian.Uint64(hdr[48+8*i:])
	}
	return h
}

// validateFrozenHeader runs every header-level check shared by the copy
// and zero-copy loaders: extractor agreement, parameter plausibility
// (nothing in the header may command a large allocation or an
// out-of-range index), and that the recorded section offsets are
// exactly the canonical layout.
func validateFrozenHeader(h frozenHeader, ext *series.Extractor) (Config, error) {
	if series.NormMode(h.mode) != ext.Mode() {
		return Config{}, fmt.Errorf("core: load frozen: index built under %v, extractor is %v", series.NormMode(h.mode), ext.Mode())
	}
	if int(h.seriesLen) != ext.Len() {
		return Config{}, fmt.Errorf("core: load frozen: index built over %d points, series has %d", h.seriesLen, ext.Len())
	}
	cfg := Config{L: int(h.l), MinCap: int(h.minCap), MaxCap: int(h.maxCap)}
	if err := cfg.fill(); err != nil {
		return Config{}, fmt.Errorf("core: load frozen: %w", err)
	}
	if ext.Len() < cfg.L {
		return Config{}, fmt.Errorf("core: load frozen: series length %d shorter than subsequence length %d", ext.Len(), cfg.L)
	}
	maxPos := series.NumSubsequences(ext.Len(), cfg.L)
	// Plausibility gates before anything allocates or indexes: a hostile
	// header must not command a multi-gigabyte allocation. A legitimate
	// tree has at most size leaves and fewer internal nodes per level
	// than the level below, so (size+1)·(height+1) over-covers every
	// valid shape.
	if h.size > uint64(maxPos) {
		return Config{}, fmt.Errorf("core: load frozen: %d entries for a series with %d windows", h.size, maxPos)
	}
	if h.height > maxFrozenHeight {
		return Config{}, fmt.Errorf("core: load frozen: implausible height %d", h.height)
	}
	if uint64(h.nodeCount) > (h.size+1)*uint64(h.height+1) {
		return Config{}, fmt.Errorf("core: load frozen: implausible node count %d for %d entries", h.nodeCount, h.size)
	}
	if uint64(h.leafStart) > uint64(h.nodeCount) {
		return Config{}, fmt.Errorf("core: load frozen: leafStart %d exceeds node count %d", h.leafStart, h.nodeCount)
	}
	lo := layoutFrozen(int64(h.nodeCount), int64(h.size), int64(cfg.L))
	want := [6]uint64{uint64(lo.firstOff), uint64(lo.countOff), uint64(lo.positionsOff),
		uint64(lo.upperOff), uint64(lo.lowerOff), uint64(lo.totalLen)}
	if h.offs != want {
		return Config{}, fmt.Errorf("core: load frozen: section offsets %v differ from the canonical layout %v", h.offs, want)
	}
	return cfg, nil
}

// LoadFrozen reconstructs a frozen index from r against ext, copying
// the arrays into fresh heap slices (the byte-order-independent path;
// FrozenFromArena is the zero-copy one). The extractor must present the
// same series (length) and normalization mode the index was built with;
// the arena is fully validated before use.
func LoadFrozen(r io.Reader, ext *series.Extractor) (*Frozen, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: load frozen: %w", err)
	}
	if string(magic) != FrozenMagic {
		return nil, fmt.Errorf("core: load frozen: bad magic %q", magic)
	}
	var version uint16
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("core: load frozen header: %w", err)
	}
	if version != FrozenVersion {
		return nil, fmt.Errorf("core: load frozen: unsupported version %d", version)
	}

	// The 6 bytes consumed so far are magic+version; read the rest
	// of the fixed header, then the sections in stream order.
	hdr := make([]byte, frozenHeaderSize)
	if _, err := io.ReadFull(br, hdr[6:]); err != nil {
		return nil, fmt.Errorf("core: load frozen header: %w", err)
	}
	h := decodeFrozenHeader(hdr)
	cfg, err := validateFrozenHeader(h, ext)
	if err != nil {
		return nil, err
	}
	f := &Frozen{ext: ext, cfg: cfg, size: int(h.size), height: int(h.height),
		leafStart: int32(h.leafStart)}
	nn := int(h.nodeCount)
	lo := layoutFrozen(int64(nn), int64(h.size), int64(cfg.L))

	// Walk the sections in stream order, skipping the alignment padding
	// between them. The chunked readers grow their output as bytes
	// actually arrive, so a hostile header claiming a huge arena costs
	// only what the stream ships.
	at := int64(frozenHeaderSize)
	skipTo := func(to int64) error {
		if _, err := io.CopyN(io.Discard, br, to-at); err != nil {
			return err
		}
		at = to
		return nil
	}
	intSections := []struct {
		off  int64
		n    int
		dst  *[]int32
		name string
	}{
		{lo.firstOff, nn, &f.first, "first"},
		{lo.countOff, nn, &f.count, "count"},
		{lo.positionsOff, int(h.size), &f.positions, "positions"},
	}
	for _, sec := range intSections {
		if err := skipTo(sec.off); err != nil {
			return nil, fmt.Errorf("core: load frozen %s: %w", sec.name, err)
		}
		arr, err := readInt32s(br, sec.n)
		if err != nil {
			return nil, fmt.Errorf("core: load frozen %s: %w", sec.name, err)
		}
		*sec.dst = arr
		at += int64(sec.n) * 4
	}
	if err := skipTo(lo.upperOff); err != nil {
		return nil, fmt.Errorf("core: load frozen bounds: %w", err)
	}
	// upper and lower are adjacent (lowerOff = upperOff + 8·nn·L), so one
	// backing array serves both.
	bounds, err := readFloat64s(br, 2*nn*cfg.L)
	if err != nil {
		return nil, fmt.Errorf("core: load frozen bounds: %w", err)
	}
	f.upper = bounds[: len(bounds)/2 : len(bounds)/2]
	f.lower = bounds[len(bounds)/2:]
	if err := f.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("core: load frozen: reconstructed index is inconsistent with the supplied series: %w", err)
	}
	return f, nil
}

// FrozenFromArena is the zero-copy open path: it interprets the TSFZ v2
// stream at byte offset off of ar as a Frozen whose arrays are views
// directly into the arena — no decoding, no copying, O(header) heap
// allocation however large the index. It returns the frozen index and
// the stream's total length (so callers walking a container format can
// find the next segment).
//
// The caller owns ar and must keep it alive (and unclosed) for the
// Frozen's lifetime, and the host must be little-endian (LoadFrozen is
// the byte-order-independent path). The structural (memory-safety)
// invariants are validated before the index is returned; the O(size·L)
// containment validation is skipped — see Frozen.CheckStructure.
func FrozenFromArena(ar *arena.Arena, off int64, ext *series.Extractor) (*Frozen, int64, error) {
	buf := ar.Bytes()
	if off < 0 || off > int64(len(buf)) || int64(len(buf))-off < frozenHeaderSize {
		return nil, 0, fmt.Errorf("core: frozen arena: %d-byte region at offset %d too small for a header", len(buf), off)
	}
	hdr := buf[off : off+frozenHeaderSize]
	if string(hdr[:4]) != FrozenMagic {
		return nil, 0, fmt.Errorf("core: frozen arena: bad magic %q", hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != FrozenVersion {
		return nil, 0, fmt.Errorf("core: frozen arena: unsupported version %d", v)
	}
	h := decodeFrozenHeader(hdr)
	cfg, err := validateFrozenHeader(h, ext)
	if err != nil {
		return nil, 0, err
	}
	lo := layoutFrozen(int64(h.nodeCount), int64(h.size), int64(cfg.L))
	if lo.totalLen > int64(len(buf))-off {
		return nil, 0, fmt.Errorf("core: frozen arena: stream of %d bytes truncated at %d", lo.totalLen, int64(len(buf))-off)
	}
	f := &Frozen{ext: ext, cfg: cfg, size: int(h.size), height: int(h.height),
		leafStart: int32(h.leafStart), backing: ar}
	nn := int(h.nodeCount)
	if f.first, err = ar.Int32s(off+lo.firstOff, nn); err != nil {
		return nil, 0, fmt.Errorf("core: frozen arena: %w", err)
	}
	if f.count, err = ar.Int32s(off+lo.countOff, nn); err != nil {
		return nil, 0, fmt.Errorf("core: frozen arena: %w", err)
	}
	if f.positions, err = ar.Int32s(off+lo.positionsOff, int(h.size)); err != nil {
		return nil, 0, fmt.Errorf("core: frozen arena: %w", err)
	}
	if f.upper, err = ar.Float64s(off+lo.upperOff, nn*cfg.L); err != nil {
		return nil, 0, fmt.Errorf("core: frozen arena: %w", err)
	}
	if f.lower, err = ar.Float64s(off+lo.lowerOff, nn*cfg.L); err != nil {
		return nil, 0, fmt.Errorf("core: frozen arena: %w", err)
	}
	if err := f.CheckStructure(); err != nil {
		return nil, 0, fmt.Errorf("core: frozen arena: stream is inconsistent with the supplied series: %w", err)
	}
	return f, lo.totalLen, nil
}

// readChunkBytes is the transfer granularity of the array readers: big
// enough to amortize call overhead, small enough that a truncated or
// hostile stream never commands a large up-front allocation.
const readChunkBytes = 1 << 16

// readInt32s reads n little-endian int32 values, growing the output as
// data arrives.
func readInt32s(r io.Reader, n int) ([]int32, error) {
	out := make([]int32, 0, min(n, readChunkBytes/4))
	var buf [readChunkBytes]byte
	for len(out) < n {
		want := min((n-len(out))*4, len(buf))
		if _, err := io.ReadFull(r, buf[:want]); err != nil {
			return nil, err
		}
		for i := 0; i < want; i += 4 {
			out = append(out, int32(binary.LittleEndian.Uint32(buf[i:])))
		}
	}
	return out, nil
}

// readFloat64s reads n little-endian float64 values, growing the
// output as data arrives.
func readFloat64s(r io.Reader, n int) ([]float64, error) {
	out := make([]float64, 0, min(n, readChunkBytes/8))
	var buf [readChunkBytes]byte
	for len(out) < n {
		want := min((n-len(out))*8, len(buf))
		if _, err := io.ReadFull(r, buf[:want]); err != nil {
			return nil, err
		}
		for i := 0; i < want; i += 8 {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(buf[i:])))
		}
	}
	return out, nil
}

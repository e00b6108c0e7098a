package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
	"unsafe"

	"twinsearch/internal/arena"
	"twinsearch/internal/datasets"
	"twinsearch/internal/series"
)

// checkFrozenParity requires every search path of got to agree with
// want byte for byte, counters included.
func checkFrozenParity(t *testing.T, want, got *Frozen, q []float64, eps float64) {
	t.Helper()
	wm, ws := want.SearchStats(q, eps)
	gm, gs := got.SearchStats(q, eps)
	if !matchesEqual(wm, gm) || ws != gs {
		t.Fatalf("SearchStats diverged: %d/%+v vs %d/%+v", len(wm), ws, len(gm), gs)
	}
	if w, g := want.SearchTopK(q, 7), got.SearchTopK(q, 7); !matchesEqual(w, g) {
		t.Fatalf("SearchTopK diverged: %v vs %v", w, g)
	}
	wp, gp := searchShorter(want, q[:len(q)/2], eps), searchShorter(got, q[:len(q)/2], eps)
	if !matchesEqual(wp, gp) {
		t.Fatalf("shorter query diverged: %v vs %v", len(wp), len(gp))
	}
}

// reseal recomputes a (possibly damaged) stream's checksums over what
// it now holds, the header's own last — what a hostile writer would do,
// and how a damaged case gets past the checksums to the validation it is
// aimed at. Sections are resealed only where the header still describes
// a layout inside the stream.
func reseal(stream []byte, ext *series.Extractor) []byte {
	c := append([]byte(nil), stream...)
	if len(c) < frozenHeaderSize {
		return c
	}
	sealHeader := func() {
		binary.LittleEndian.PutUint32(c[frozenHeaderCRC:], crc32.Checksum(c[:frozenHeaderCRC], castagnoli))
	}
	sealHeader()
	if h, err := parseFrozenHeader(c[:frozenHeaderSize], ext); err == nil && h.layout.totalLen() <= int64(len(c)) {
		for i := range h.crcs {
			binary.LittleEndian.PutUint32(c[frozenSectionCRCs+4*i:], crc32.Checksum(c[h.layout[i]:h.layout[i+1]], castagnoli))
		}
		sealHeader()
	}
	return c
}

func TestFrozenStreamRoundTrip(t *testing.T) {
	for _, mode := range []series.NormMode{series.NormNone, series.NormGlobal, series.NormPerSubsequence} {
		ts := datasets.InsectN(41, 4000)
		fz, ext := frozenOver(t, ts, mode, Config{L: 60})

		var buf bytes.Buffer
		n, err := fz.WriteTo(&buf)
		if err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		if n != int64(buf.Len()) || n != fz.StreamLen() {
			t.Fatalf("WriteTo reported %d bytes, wrote %d, StreamLen says %d", n, buf.Len(), fz.StreamLen())
		}
		if n%8 != 0 {
			t.Fatalf("stream length %d not 8-byte aligned", n)
		}
		got, _, err := OpenFrozen(arena.FromBytes(buf.Bytes()), 0, ext, nil)
		if err != nil {
			t.Fatalf("OpenFrozen: %v", err)
		}
		q := ext.ExtractCopy(321, 60)
		checkFrozenParity(t, fz, got, q, 0.4)
	}
}

// TestFrozenFromArenaDifferential opens a saved stream through a file
// mapping: the arrays are views into it, and every search path agrees
// with the index it was saved from.
func TestFrozenFromArenaDifferential(t *testing.T) {
	for _, mode := range []series.NormMode{series.NormNone, series.NormGlobal, series.NormPerSubsequence} {
		ts := datasets.InsectN(43, 4000)
		fz, ext := frozenOver(t, ts, mode, Config{L: 60})
		var buf bytes.Buffer
		if _, err := fz.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		ar := mapStream(t, buf.Bytes())
		got, n, err := OpenFrozen(ar, 0, ext, nil)
		if err != nil {
			t.Fatalf("OpenFrozen: %v", err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("OpenFrozen consumed %d bytes of %d", n, buf.Len())
		}
		if got.Mapped() != ar.Mapped() {
			t.Fatalf("views claim mapped=%v in a mapped=%v arena", got.Mapped(), ar.Mapped())
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("mapped arena fails full invariants: %v", err)
		}
		q := ext.ExtractCopy(321, 60)
		checkFrozenParity(t, fz, got, q, 0.4)
	}
}

// TestFrozenFromArenaAtOffset exercises the container-format use: the
// stream does not start at byte 0 of the region (TSSH v5 places each
// shard segment at an 8-aligned offset).
func TestFrozenFromArenaAtOffset(t *testing.T) {
	ts := datasets.RandomWalk(48, 1500)
	fz, ext := frozenOver(t, ts, series.NormGlobal, Config{L: 40})
	var buf bytes.Buffer
	buf.Write(make([]byte, 64)) // leading padding
	if _, err := fz.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, _, err := OpenFrozen(arena.FromBytes(buf.Bytes()), 64, ext, nil)
	if err != nil {
		t.Fatalf("OpenFrozen at offset: %v", err)
	}
	q := ext.ExtractCopy(50, 40)
	checkFrozenParity(t, fz, got, q, 0.5)
}

// TestFrozenStreamErrors feeds systematically damaged streams to a heap
// and a mapped arena, as they are (the header checksum refuses them) and
// resealed (the validation each is aimed at must): every case must fail
// cleanly — an error, no panic, no out-of-bounds read.
func TestFrozenStreamErrors(t *testing.T) {
	ts := datasets.RandomWalk(49, 1200)
	fz, ext := frozenOver(t, ts, series.NormGlobal, Config{L: 40})
	var buf bytes.Buffer
	if _, err := fz.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	mutate := func(off int, val byte) []byte {
		c := append([]byte(nil), full...)
		c[off] = val
		return c
	}
	put64 := func(off int, v uint64) []byte {
		c := append([]byte(nil), full...)
		binary.LittleEndian.PutUint64(c[off:], v)
		return c
	}
	cases := map[string][]byte{
		"empty":            {},
		"magic only":       full[:4],
		"header truncated": full[:50],
		"body truncated":   full[:len(full)-9],
		"bad magic":        append([]byte("NOPE"), full[4:]...),
		"bad version":      mutate(4, 0xFF),
		"retired version":  mutate(4, 2), // TSFZ v2: float64 bounds, no checksums
		"bad mode":         mutate(6, 0xEE),
		"huge node count":  put64(40, 0xFFFFFFFFFFFFFFFF), // nodeCount+leafStart
		"huge size":        put64(24, 1<<60),
		"huge height":      mutate(20, 0xFF),
		"huge MaxCap":      mutate(19, 0x7F),              // a valid tree: only the MaxCap bound refuses it
		"misaligned first": put64(48, frozenHeaderSize+1), // off-by-one section offset
		"aliased sections": put64(56, frozenHeaderSize),   // countOff == firstOff
		"shifted offsets":  put64(64, 1<<40),              // positionsOff far past the stream
	}
	for name, stream := range cases {
		for form, stream := range map[string][]byte{"": stream, " (resealed)": reseal(stream, ext)} {
			for kind, load := range loaders {
				if _, err := load(t, stream, ext); err == nil {
					t.Errorf("%s arena accepted %s%s", kind, name, form)
				}
			}
		}
	}
	if _, err := loaders["heap"](t, reseal(full, ext), ext); err != nil {
		t.Fatalf("resealing an undamaged stream broke it: %v", err)
	}

	// Truncation sweep: no prefix of a valid stream may load (the
	// shortest prefixes exercise the header paths, the rest the
	// bounds-of-region checks).
	for n := 0; n < len(full); n += 7 {
		if _, _, err := OpenFrozen(arena.FromBytes(full[:n:n]), 0, ext, nil); err == nil {
			t.Fatalf("OpenFrozen accepted a %d-byte prefix of a %d-byte stream", n, len(full))
		}
	}
}

// TestFrozenMemoryBytes ties the footprint accounting to the stream
// layout: what an arena holds, on the heap or mapped, is the stream
// minus its header and alignment padding plus the Frozen struct — so a
// change of an array's width that reaches one and not the other fails
// here.
func TestFrozenMemoryBytes(t *testing.T) {
	ts := datasets.RandomWalk(74, 900)
	fz, ext := frozenOver(t, ts, series.NormGlobal, Config{L: 33})
	var buf bytes.Buffer
	if _, err := fz.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	nn, l := int64(fz.NodeCount()), int64(fz.L())
	padding := fz.StreamLen() - frozenHeaderSize - 4*(2*nn+int64(fz.Len())+2*nn*l)
	if padding < 0 || padding >= 5*8 {
		t.Fatalf("stream of %d bytes leaves %d for padding", fz.StreamLen(), padding)
	}
	const headers = int64(unsafe.Sizeof(Frozen{}))
	want := fz.StreamLen() - frozenHeaderSize - padding + headers

	opens := map[string]*Frozen{"built": fz}
	for kind, load := range loaders {
		var err error
		if opens[kind], err = load(t, buf.Bytes(), ext); err != nil {
			t.Fatal(err)
		}
	}
	for name, f := range opens {
		if got := int64(f.MemoryBytes() + f.MappedBytes()); got != want {
			t.Errorf("%s: MemoryBytes %d + MappedBytes %d = %d, the stream accounts for %d",
				name, f.MemoryBytes(), f.MappedBytes(), got, want)
		}
		wantHeap := want
		if f.Mapped() {
			wantHeap = headers // the arrays are the page cache's
		}
		if int64(f.MemoryBytes()) != wantHeap {
			t.Errorf("%s (mapped=%v): MemoryBytes %d, want %d", name, f.Mapped(), f.MemoryBytes(), wantHeap)
		}
	}
}

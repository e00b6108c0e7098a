package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"twinsearch/internal/arena"
	"twinsearch/internal/datasets"
	"twinsearch/internal/series"
)

// frozenOver builds and freezes an index for persistence tests.
func frozenOver(t *testing.T, ts []float64, mode series.NormMode, cfg Config) (*Frozen, *series.Extractor) {
	t.Helper()
	ix, ext := buildOver(t, ts, mode, cfg)
	return ix.Freeze(), ext
}

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
	wp, werr := want.SearchPrefix(q[:len(q)/2], eps)
	gp, gerr := got.SearchPrefix(q[:len(q)/2], eps)
	if (werr == nil) != (gerr == nil) || !matchesEqual(wp, gp) {
		t.Fatalf("SearchPrefix diverged: %v/%v vs %v/%v", len(wp), werr, len(gp), gerr)
	}
	wa, was := want.SearchApprox(q, eps, 4)
	ga, gas := got.SearchApprox(q, eps, 4)
	if !matchesEqual(wa, ga) || was != gas {
		t.Fatalf("SearchApprox diverged: %d vs %d", len(wa), len(ga))
	}
}

func TestFrozenV2RoundTrip(t *testing.T) {
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
			t.Fatalf("v2 stream length %d not 8-byte aligned", n)
		}
		got, err := LoadFrozen(bytes.NewReader(buf.Bytes()), ext)
		if err != nil {
			t.Fatalf("LoadFrozen: %v", err)
		}
		q := ext.ExtractCopy(321, 60)
		checkFrozenParity(t, fz, got, q, 0.4)
	}
}

func TestFrozenFromArenaDifferential(t *testing.T) {
	for _, mode := range []series.NormMode{series.NormNone, series.NormGlobal, series.NormPerSubsequence} {
		ts := datasets.InsectN(43, 4000)
		fz, ext := frozenOver(t, ts, mode, Config{L: 60})
		var buf bytes.Buffer
		if _, err := fz.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		ar := arena.FromBytes(buf.Bytes())
		got, n, err := FrozenFromArena(ar, 0, ext)
		if err != nil {
			t.Fatalf("FrozenFromArena: %v", err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("FrozenFromArena consumed %d bytes of %d", n, buf.Len())
		}
		if got.Mapped() {
			t.Fatal("heap-arena views claim to be mapped")
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("zero-copy arena fails full invariants: %v", err)
		}
		q := ext.ExtractCopy(321, 60)
		checkFrozenParity(t, fz, got, q, 0.4)
	}
}

// TestFrozenFromArenaAtOffset exercises the container-format use: the
// stream does not start at byte 0 of the region (TSSH v3 places each
// shard segment at an 8-aligned offset).
func TestFrozenFromArenaAtOffset(t *testing.T) {
	ts := datasets.RandomWalk(48, 1500)
	fz, ext := frozenOver(t, ts, series.NormGlobal, Config{L: 40})
	var buf bytes.Buffer
	buf.Write(make([]byte, 64)) // leading padding
	if _, err := fz.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, _, err := FrozenFromArena(arena.FromBytes(buf.Bytes()), 64, ext)
	if err != nil {
		t.Fatalf("FrozenFromArena at offset: %v", err)
	}
	q := ext.ExtractCopy(50, 40)
	checkFrozenParity(t, fz, got, q, 0.5)
}

// TestFrozenV2StreamErrors feeds systematically damaged v2 streams to
// both loaders: every case must fail cleanly — an error, no panic, no
// out-of-bounds read.
func TestFrozenV2StreamErrors(t *testing.T) {
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
		"retired version":  mutate(4, 1), // TSFZ v1: unaligned, no longer read
		"bad mode":         mutate(6, 0xEE),
		"huge node count":  put64(40, 0xFFFFFFFFFFFFFFFF), // nodeCount+leafStart
		"huge size":        put64(24, 1<<60),
		"huge height":      mutate(20, 0xFF),
		"misaligned first": put64(48, 97),    // off-by-one section offset
		"aliased sections": put64(56, 96),    // countOff == firstOff
		"shifted offsets":  put64(64, 1<<40), // positionsOff far past the stream
	}
	for name, stream := range cases {
		if _, err := LoadFrozen(bytes.NewReader(stream), ext); err == nil {
			t.Errorf("LoadFrozen accepted %s", name)
		}
		if _, _, err := FrozenFromArena(arena.FromBytes(stream), 0, ext); err == nil {
			t.Errorf("FrozenFromArena accepted %s", name)
		}
	}

	// Truncation sweep: no prefix of a valid stream may load (the
	// shortest prefixes exercise the header paths, the rest the section
	// readers and the bounds-of-region checks).
	for n := 0; n < len(full); n += 7 {
		if _, err := LoadFrozen(bytes.NewReader(full[:n]), ext); err == nil {
			t.Fatalf("LoadFrozen accepted a %d-byte prefix of a %d-byte stream", n, len(full))
		}
		if _, _, err := FrozenFromArena(arena.FromBytes(full[:n:n]), 0, ext); err == nil {
			t.Fatalf("FrozenFromArena accepted a %d-byte prefix of a %d-byte stream", n, len(full))
		}
	}
}

package arena

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// buildRegion lays out 4 int32s at offset 0 and 3 float32s at offset 16
// in one little-endian buffer.
func buildRegion(t *testing.T) ([]byte, []int32, []float32) {
	t.Helper()
	ints := []int32{1, -2, 3, math.MaxInt32}
	floats := []float32{0.5, -1e30, math.Pi}
	buf := make([]byte, 16+4*len(floats))
	for i, v := range ints {
		binary.LittleEndian.PutUint32(buf[i*4:], uint32(v))
	}
	for i, v := range floats {
		binary.LittleEndian.PutUint32(buf[16+i*4:], math.Float32bits(v))
	}
	return buf, ints, floats
}

func checkViews(t *testing.T, a *Arena, ints []int32, floats []float32) {
	t.Helper()
	gotI, err := a.Int32s(0, len(ints))
	if err != nil {
		t.Fatalf("Int32s: %v", err)
	}
	for i, v := range ints {
		if gotI[i] != v {
			t.Fatalf("int32 %d: got %d, want %d", i, gotI[i], v)
		}
	}
	gotF, err := a.Float32s(16, len(floats))
	if err != nil {
		t.Fatalf("Float32s: %v", err)
	}
	for i, v := range floats {
		if gotF[i] != v {
			t.Fatalf("float32 %d: got %g, want %g", i, gotF[i], v)
		}
	}
}

func TestHeapViews(t *testing.T) {
	buf, ints, floats := buildRegion(t)
	a := FromBytes(buf)
	if a.Mapped() || a.MappedBytes() != 0 {
		t.Fatal("heap arena claims to be mapped")
	}
	checkViews(t, a, ints, floats)
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestMappedViews(t *testing.T) {
	if !MapSupported() {
		t.Skip("mmap unsupported on this platform")
	}
	buf, ints, floats := buildRegion(t)
	path := filepath.Join(t.TempDir(), "region.bin")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := Map(path)
	if err != nil {
		t.Fatalf("Map: %v", err)
	}
	if !a.Mapped() || a.MappedBytes() != len(buf) || a.Len() != len(buf) {
		t.Fatalf("mapped arena reports mapped=%v bytes=%d, want %d", a.Mapped(), a.MappedBytes(), len(buf))
	}
	checkViews(t, a, ints, floats)
	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestMapEmptyFile(t *testing.T) {
	if !MapSupported() {
		t.Skip("mmap unsupported on this platform")
	}
	path := filepath.Join(t.TempDir(), "empty.bin")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := Map(path)
	if err != nil {
		t.Fatalf("Map(empty): %v", err)
	}
	if a.Len() != 0 {
		t.Fatalf("empty file mapped to %d bytes", a.Len())
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestViewErrors(t *testing.T) {
	buf, _, _ := buildRegion(t)
	a := FromBytes(buf)
	cases := []struct {
		name string
		call func() error
	}{
		{"negative offset", func() error { _, err := a.Int32s(-4, 1); return err }},
		{"negative count", func() error { _, err := a.Int32s(0, -1); return err }},
		{"past end", func() error { _, err := a.Int32s(int64(len(buf)), 1); return err }},
		{"overrun", func() error { _, err := a.Float32s(16, 4); return err }},
		{"overflow", func() error { _, err := a.Float32s(8, math.MaxInt64/2); return err }},
		{"misaligned int32", func() error { _, err := a.Int32s(2, 1); return err }},
		{"misaligned float32", func() error { _, err := a.Float32s(18, 1); return err }},
	}
	for _, c := range cases {
		if err := c.call(); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
	// Empty views are fine anywhere in range, even at the very end.
	if v, err := a.Int32s(int64(len(buf)), 0); err != nil || v != nil {
		t.Fatalf("empty view: %v, %v", v, err)
	}
}

func TestMapMissingFile(t *testing.T) {
	if !MapSupported() {
		t.Skip("mmap unsupported on this platform")
	}
	if _, err := Map(filepath.Join(t.TempDir(), "nope.bin")); err == nil {
		t.Fatal("Map of a missing file succeeded")
	}
}

// Package arena owns the byte regions that back frozen index arenas.
//
// A frozen TS-Index is a handful of flat arrays ([]int32 structure,
// []float32 bounds). Before this package those arrays were always
// heap-allocated Go slices filled by decoding a stream; an Arena
// decouples the arrays from their storage: it holds one []byte — a heap
// buffer or an mmap'd file region — and hands out typed slice views
// into it by safe reinterpretation (bounds- and alignment-checked, no
// copying). Storage owns the bytes; the engine reinterprets them.
//
// Views alias the arena's memory. They stay valid until Close, which
// unmaps a mapped region; reading a view after Close faults, so owners
// (the Engine) must not release an arena while traversals can still
// run. Writing through a view is forbidden — mapped regions are mapped
// read-only and the kernel enforces it.
//
// Reinterpretation assumes the bytes are little-endian, which is the
// byte order of every twinsearch stream format. On a big-endian host
// the views would transpose every value, so View construction fails
// there (LittleEndianHost) and callers fall back to the decoding copy
// loaders, which are byte-order independent.
package arena

import (
	"fmt"
	"unsafe"
)

// Arena is one contiguous byte region, heap- or file-backed.
type Arena struct {
	buf    []byte
	mapped bool
	closed bool
}

// FromBytes wraps a heap buffer in an Arena without copying. The caller
// must not modify b afterwards.
func FromBytes(b []byte) *Arena { return &Arena{buf: b} }

// Bytes returns the backing region. Callers must not modify it.
func (a *Arena) Bytes() []byte { return a.buf }

// Len returns the region size in bytes.
func (a *Arena) Len() int { return len(a.buf) }

// Mapped reports whether the region is an mmap'd file rather than heap
// memory.
func (a *Arena) Mapped() bool { return a.mapped }

// MappedBytes returns the file-mapped footprint: the region size when
// mapped, 0 for heap buffers.
func (a *Arena) MappedBytes() int {
	if a.mapped {
		return len(a.buf)
	}
	return 0
}

// Close releases the region: mapped regions are unmapped (after which
// every view into them is invalid), heap regions are simply dropped.
// Close is idempotent.
func (a *Arena) Close() error {
	if a.closed {
		return nil
	}
	a.closed = true
	buf := a.buf
	a.buf = nil
	if a.mapped {
		return munmap(buf)
	}
	return nil
}

// Align8 rounds n up to the next multiple of 8 — the alignment every
// stream format's sections and segments keep, so any view (none is
// wider than 8 bytes) can point straight into a mapped region. The container (TSSH) and segment (TSFZ) layers
// share this one definition; their padding must round identically.
func Align8(n int64) int64 { return (n + 7) &^ 7 }

// LittleEndianHost reports whether the host stores integers
// little-endian — the precondition for reinterpreting the stream
// formats' bytes in place.
func LittleEndianHost() bool {
	x := uint16(1)
	//tsvet:ignore probes a 2-byte local on the stack, nothing to bounds-check
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// view validates one typed window of the region: off and n must be
// non-negative, off+n*width must lie within the region without
// overflowing, and the start address must be aligned for the element
// type (mmap regions are page-aligned, so an aligned offset suffices;
// heap buffers are checked against the actual address).
func (a *Arena) view(off int64, n, width int, kind string) (unsafe.Pointer, error) {
	if !LittleEndianHost() {
		return nil, fmt.Errorf("arena: big-endian host cannot reinterpret little-endian streams in place")
	}
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("arena: negative %s view (off=%d, n=%d)", kind, off, n)
	}
	need := int64(n) * int64(width)
	if need/int64(width) != int64(n) || off > int64(len(a.buf)) || need > int64(len(a.buf))-off {
		return nil, fmt.Errorf("arena: %s view [%d, %d+%d×%d) outside %d-byte region", kind, off, off, n, width, len(a.buf))
	}
	if n == 0 {
		return nil, nil
	}
	p := unsafe.Pointer(&a.buf[off])
	if uintptr(p)%uintptr(width) != 0 {
		return nil, fmt.Errorf("arena: %s view at offset %d is not %d-byte aligned", kind, off, width)
	}
	return p, nil
}

// Int32s returns the n little-endian int32 values starting at byte
// offset off as a view into the region.
func (a *Arena) Int32s(off int64, n int) ([]int32, error) {
	p, err := a.view(off, n, 4, "int32")
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, nil
	}
	return unsafe.Slice((*int32)(p), n), nil
}

// Float32s returns the n little-endian float32 values starting at byte
// offset off as a view into the region — the width the frozen arena
// stores its bounds at.
func (a *Arena) Float32s(off int64, n int) ([]float32, error) {
	p, err := a.view(off, n, 4, "float32")
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, nil
	}
	return unsafe.Slice((*float32)(p), n), nil
}

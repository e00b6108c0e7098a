// Package arena owns the byte regions saved indexes are opened from.
//
// A frozen TS-Index is a handful of flat arrays ([]int32 structure,
// []float32 bounds). An Arena holds one []byte — a heap buffer or an
// mmap'd file region — and hands out typed slice views into it by safe
// reinterpretation (bounds- and alignment-checked, no copying). Every
// saved-index open goes through one: Open maps the file or reads it
// into the heap, and the loaders view the arena either way. The kind
// decides how much they verify: a heap arena's bytes are resident
// already, so they are hashed and checked in full; a mapped one's are
// not read at open, so only its headers and structure are.
//
// Views alias the arena's memory. They stay valid until Close, which
// unmaps a mapped region; reading a view after Close faults, so owners
// (the Engine, a cluster Node) must not release an arena while
// traversals can still run. Writing through a view is forbidden —
// mapped regions are mapped read-only and the kernel enforces it.
//
// Reinterpretation assumes the bytes are little-endian, which is the
// byte order of every twinsearch stream format. On a big-endian host a
// view is instead a decoded heap copy (decodeLE) with the same checks,
// so every open path works on every host.
package arena

import (
	"encoding/binary"
	"fmt"
	"os"
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

// Open returns the file at path as an arena: mapped when mmap is asked
// for and the file can be mapped, read into the heap otherwise — on a
// platform without mmap, and when a mapping fails at run time (FUSE or
// network mounts, mapping limits), where the read either serves the
// file or reports the real problem.
func Open(path string, mmap bool) (*Arena, error) {
	if mmap {
		if a, err := Map(path); err == nil {
			return a, nil
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return FromBytes(raw), nil
}

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

// littleEndian reports whether the host stores integers little-endian —
// the precondition for reinterpreting the stream formats' bytes in
// place.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// view validates one typed window of the region and returns its bytes:
// off and n must be non-negative, off+n*width must lie within the
// region without overflowing, and the start address must be aligned for
// the element type (mmap regions are page-aligned, so an aligned offset
// suffices; heap buffers are checked against the actual address).
func (a *Arena) view(off int64, n, width int, kind string) ([]byte, error) {
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
	b := a.buf[off : off+need]
	if uintptr(unsafe.Pointer(&b[0]))%uintptr(width) != 0 {
		return nil, fmt.Errorf("arena: %s view at offset %d is not %d-byte aligned", kind, off, width)
	}
	return b, nil
}

// viewAs returns the n little-endian 4-byte values starting at byte
// offset off as a view into the region (a decoded copy on a big-endian
// host).
func viewAs[T int32 | float32](a *Arena, off int64, n int, kind string) ([]T, error) {
	b, err := a.view(off, n, 4, kind)
	if err != nil || b == nil {
		return nil, err
	}
	if !littleEndian {
		return decodeLE[T](b)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), nil
}

// decodeLE decodes the little-endian 4-byte values b holds into a fresh
// slice: the byte-order-independent form of a view.
func decodeLE[T int32 | float32](b []byte) ([]T, error) {
	out := make([]T, len(b)/4)
	_, err := binary.Decode(b, binary.LittleEndian, out)
	return out, err
}

// Int32s returns the n little-endian int32 values starting at byte
// offset off as a view into the region.
func (a *Arena) Int32s(off int64, n int) ([]int32, error) {
	return viewAs[int32](a, off, n, "int32")
}

// Float32s returns the n little-endian float32 values starting at byte
// offset off as a view into the region — the width the frozen arena
// stores its bounds at.
func (a *Arena) Float32s(off int64, n int) ([]float32, error) {
	return viewAs[float32](a, off, n, "float32")
}

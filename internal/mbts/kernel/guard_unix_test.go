//go:build linux || darwin || freebsd || netbsd || openbsd

package kernel

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"unsafe"

	"twinsearch/internal/arena"
)

// TestSweepWindowsGuardPage scores windows that end on the last byte
// before an inaccessible page: a tail step that read a whole vector, or
// a masked load that touched a lane past start+n, faults here instead
// of reading a neighbour's memory unnoticed. Every n mod 4, on every
// implementation.
func TestSweepWindowsGuardPage(t *testing.T) {
	page := os.Getpagesize()
	path := filepath.Join(t.TempDir(), "series")
	if err := os.WriteFile(path, make([]byte, 2*page), 0o600); err != nil {
		t.Fatal(err)
	}
	ar, err := arena.Map(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ar.Close()
	buf := ar.Bytes()
	if err := syscall.Mprotect(buf[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	//tsvet:ignore the series must be the mapping itself for its last lane to border the guard page; page-aligned and page-sized
	data := unsafe.Slice((*float64)(unsafe.Pointer(&buf[0])), page/8)

	for n := 1; n <= 45; n++ {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i%5) - 2
		}
		last := int32(len(data) - n)
		checkWindowSweep(t, data, []int32{last, 0, last - 1, last}, s, 1)
		checkWindowSweep(t, data, []int32{last}, s, 5) // never abandons: the tail runs
	}
}

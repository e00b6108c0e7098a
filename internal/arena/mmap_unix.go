//go:build linux || darwin || freebsd || netbsd || openbsd

package arena

import (
	"fmt"
	"os"
	"syscall"
)

// MapSupported reports whether Map can produce a file-backed Arena on
// this platform.
func MapSupported() bool { return true }

// Map maps the file at path read-only in its entirety. The returned
// Arena owns the mapping; Close unmaps it. An empty file maps to an
// empty (heap) arena — mmap of length 0 is an error on every platform,
// and there is nothing to share anyway.
func Map(path string) (*Arena, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("arena: map: %w", err)
	}
	defer f.Close() // the mapping outlives the descriptor
	info, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("arena: map: %w", err)
	}
	size := info.Size()
	if size == 0 {
		return &Arena{}, nil
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("arena: map: %s is %d bytes, beyond this platform's address space", path, size)
	}
	buf, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("arena: mmap %s: %w", path, err)
	}
	return &Arena{buf: buf, mapped: true}, nil
}

func munmap(buf []byte) error {
	if err := syscall.Munmap(buf); err != nil {
		return fmt.Errorf("arena: munmap: %w", err)
	}
	return nil
}

//go:build !linux && !darwin && !freebsd && !netbsd && !openbsd

package arena

import "fmt"

// MapSupported reports that this platform has no Map implementation;
// Open reads files into the heap instead.
func MapSupported() bool { return false }

// Map is unavailable on this platform.
func Map(path string) (*Arena, error) {
	return nil, fmt.Errorf("arena: memory-mapped opening is not supported on this platform")
}

func munmap(buf []byte) error { return nil }

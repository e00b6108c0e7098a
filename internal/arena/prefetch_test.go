package arena

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestPrefetchHeap checks the touch pass is bounded and harmless on a
// heap region.
func TestPrefetchHeap(t *testing.T) {
	buf := make([]byte, 3*4096+17)
	for i := range buf {
		buf[i] = byte(i)
	}
	want := append([]byte(nil), buf...)
	a := FromBytes(buf)
	if got := a.Prefetch(0); got != len(buf) {
		t.Fatalf("Prefetch(0) touched %d bytes, want %d", got, len(buf))
	}
	if got := a.Prefetch(4096); got != 4096 {
		t.Fatalf("Prefetch(4096) touched %d bytes", got)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("Prefetch modified the region")
	}
	if FromBytes(nil).Prefetch(0) != 0 {
		t.Fatal("empty arena touched bytes")
	}
}

// TestPrefetchMapped runs the madvise + touch path over a real mapping.
func TestPrefetchMapped(t *testing.T) {
	if !MapSupported() {
		t.Skip("no mmap on this platform")
	}
	path := filepath.Join(t.TempDir(), "region")
	data := make([]byte, 2*4096)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := Map(path)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if got := a.Prefetch(0); got != len(data) {
		t.Fatalf("Prefetch touched %d bytes, want %d", got, len(data))
	}
	if !bytes.Equal(a.Bytes(), data) {
		t.Fatal("mapped region corrupted after prefetch")
	}
}

// TestPrefetchConcurrent warms two arenas at once, as two mapped opens
// with Prefetch in one process do: under -race it fails if the touch
// passes share unsynchronised state.
func TestPrefetchConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			FromBytes(make([]byte, 3*4096)).Prefetch(0)
		}()
	}
	wg.Wait()
}

package core_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"twinsearch"
	"twinsearch/internal/datasets"
)

// TestFrozenStreamEveryByteGuarded flips every byte of a small saved
// single index in turn and opens it as a process does. OpenSaved and
// OpenSavedFile read it into a heap arena and must refuse every flip,
// with one text: the header's checksum covers the header, each
// section's covers the section through its padding, so no byte — not
// the reserved one, not the zero fill — is unguarded, and a flip in a
// section is refused by that section's name. OpenSavedFile with MMap,
// which does not read the sections, must still refuse every flip in
// the header.
func TestFrozenStreamEveryByteGuarded(t *testing.T) {
	data := datasets.RandomWalk(73, 261) // 247 windows: the positions section ends off the 8-byte grid
	opt := twinsearch.Options{L: 15}
	mapped := opt
	mapped.MMap = true
	eng, err := twinsearch.Open(data, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// The header records L (off 8), the entry count (24), the node count
	// (40) and the section offsets, the stream's length last (48).
	le := binary.LittleEndian
	var lo [6]int
	for i := range lo {
		lo[i] = int(le.Uint64(full[48+8*i:]))
	}
	nn, l := int(le.Uint32(full[40:])), int(le.Uint32(full[8:]))
	padded := false
	for i, n := range []int{nn, nn, int(le.Uint64(full[24:])), nn * l, nn * l} {
		padded = padded || lo[i+1]-lo[i] > 4*n
	}
	if !padded {
		t.Fatal("the case has no alignment padding to flip")
	}
	sections := []string{"first", "count", "positions", "upper", "lower"}

	// One file, rewritten in place for each flip: far cheaper than
	// creating one per flip.
	file, err := os.Create(filepath.Join(t.TempDir(), "index.tsfz"))
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	path := file.Name()
	for off := range full {
		for _, mask := range []byte{0x01, 0xFF} {
			c := slices.Clone(full)
			c[off] ^= mask
			if _, err := file.WriteAt(c, 0); err != nil {
				t.Fatal(err)
			}
			_, err := twinsearch.OpenSaved(data, bytes.NewReader(c), opt)
			if err == nil {
				t.Fatalf("OpenSaved accepted byte %d of %d flipped by %#02x", off, len(full), mask)
			}
			if _, ferr := twinsearch.OpenSavedFile(data, path, opt); ferr == nil || ferr.Error() != err.Error() {
				t.Fatalf("byte %d flipped by %#02x: OpenSavedFile says %v, OpenSaved %q", off, mask, ferr, err)
			}
			if off < lo[0] {
				if _, err := twinsearch.OpenSavedFile(data, path, mapped); err == nil {
					t.Fatalf("a mapped open accepted header byte %d flipped by %#02x", off, mask)
				}
				continue
			}
			sec := 0
			for off >= lo[sec+1] {
				sec++
			}
			if want := "section " + sections[sec] + " checksum"; !strings.Contains(err.Error(), want) {
				t.Fatalf("byte %d flipped by %#02x: error %q does not name %q", off, mask, err, want)
			}
		}
	}
}

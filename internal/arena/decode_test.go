package arena_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"twinsearch/internal/arena"
	"twinsearch/internal/core"
	"twinsearch/internal/datasets"
	"twinsearch/internal/series"
)

// TestDecodeMatchesView runs the big-endian arm on this host: for every
// section of a saved index, the decoded copy a big-endian host views
// equals the in-place view, bit for bit.
func TestDecodeMatchesView(t *testing.T) {
	ext := series.NewExtractor(datasets.RandomWalk(12, 2000), series.NormGlobal)
	f, err := core.Build(ext, core.Config{L: 24})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	ar := arena.FromBytes(stream)
	// The header records L (off 8), the entry count (24), the node count
	// (40) and the section offsets (48): three int32 sections, then two
	// float32 ones.
	le := binary.LittleEndian
	nn, l := int(le.Uint32(stream[40:])), int(le.Uint32(stream[8:]))
	for i, n := range []int{nn, nn, int(le.Uint64(stream[24:])), nn * l, nn * l} {
		off := int64(le.Uint64(stream[48+8*i:]))
		raw := stream[off : off+4*int64(n)]
		var same bool
		if i < 3 {
			view, err := ar.Int32s(off, n)
			dec, derr := arena.DecodeInt32s(raw)
			same = err == nil && derr == nil && slices.Equal(view, dec)
		} else {
			view, err := ar.Float32s(off, n)
			dec, derr := arena.DecodeFloat32s(raw)
			same = err == nil && derr == nil && slices.EqualFunc(view, dec, func(a, b float32) bool {
				return math.Float32bits(a) == math.Float32bits(b)
			})
		}
		if !same || n == 0 {
			t.Fatalf("section %d (%d values at %d): the decoded copy differs from the view", i, n, off)
		}
	}
}

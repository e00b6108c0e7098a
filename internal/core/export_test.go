package core

import (
	"encoding/binary"
	"io"
	"testing"

	"twinsearch/internal/arena"
	"twinsearch/internal/series"
)

// BuildRangeGolden is BuildRange that also renders the builder's tree
// to w as the retired TSFZ v2 stream — BFS node order, child ranges,
// leaf position runs and every bound at full float64 width — the bytes
// TestBuildGoldenTree's sha-256 constants were taken over at 45fe3af. The
// arena stores outward-rounded float32 bounds and checksums now, so the
// stream Frozen.WriteTo emits can no longer witness the builder's exact
// bounds; this writer exists only so those constants keep pinning the
// tree, unmoved.
func BuildRangeGolden(t testing.TB, w io.Writer, ext *series.Extractor, cfg Config, lo, hi int) *Frozen {
	t.Helper()
	ix := grow(t, ext, cfg, lo, hi)
	f := ix.freeze() // node order, ranges and position runs
	order := []*node{}
	if ix.root != nil {
		order = append(order, ix.root)
	}
	for at := 0; at < len(order); at++ {
		order = append(order, order[at].children...)
	}
	nn, l := int64(len(order)), int64(ix.cfg.L)
	var offs [6]int64 // first, count, positions, upper, lower, totalLen
	offs[0] = 96
	offs[1] = arena.Align8(offs[0] + 4*nn)
	offs[2] = arena.Align8(offs[1] + 4*nn)
	offs[3] = arena.Align8(offs[2] + 4*int64(len(f.positions)))
	offs[4] = offs[3] + 8*nn*l
	offs[5] = offs[4] + 8*nn*l

	out := make([]byte, offs[3], offs[5])
	copy(out, FrozenMagic)
	binary.LittleEndian.PutUint16(out[4:], 2)
	out[6] = uint8(ix.ext.Mode())
	binary.LittleEndian.PutUint32(out[8:], uint32(ix.cfg.L))
	binary.LittleEndian.PutUint32(out[12:], uint32(ix.cfg.MinCap))
	binary.LittleEndian.PutUint32(out[16:], uint32(ix.cfg.MaxCap))
	binary.LittleEndian.PutUint32(out[20:], uint32(ix.height))
	binary.LittleEndian.PutUint64(out[24:], uint64(ix.size))
	binary.LittleEndian.PutUint64(out[32:], uint64(ix.ext.Len()))
	binary.LittleEndian.PutUint32(out[40:], uint32(nn))
	binary.LittleEndian.PutUint32(out[44:], uint32(f.leafStart))
	for i, off := range offs {
		binary.LittleEndian.PutUint64(out[48+8*i:], uint64(off))
	}
	for i, arr := range [][]int32{f.first, f.count, f.positions} {
		if _, err := binary.Encode(out[offs[i]:], binary.LittleEndian, arr); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range order {
		out, _ = binary.Append(out, binary.LittleEndian, n.bounds.Upper)
	}
	for _, n := range order {
		out, _ = binary.Append(out, binary.LittleEndian, n.bounds.Lower)
	}
	if _, err := w.Write(out); err != nil {
		t.Fatal(err)
	}
	return f
}

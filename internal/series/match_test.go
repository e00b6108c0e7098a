package series

import (
	"fmt"
	"slices"
	"testing"
)

// sortedByStart is the definition SortMatches must reproduce: the
// lists concatenated, then sorted by start with slices.SortFunc.
func sortedByStart(lists [][]Match) []Match {
	var want []Match
	for _, ms := range lists {
		want = append(want, ms...)
	}
	slices.SortFunc(want, byStart)
	return want
}

// checkOrder holds SortMatches to sortedByStart on the concatenation of
// lists, alone and as the segment after a prefix it must keep (the way
// Resolve orders one shard's units after the shards before it).
func checkOrder(t *testing.T, lists [][]Match) {
	t.Helper()
	want := sortedByStart(lists)
	in := slices.Concat(lists...)
	SortMatches(in)
	if !slices.Equal(in, want) {
		t.Fatalf("SortMatches(%v) = %v, want %v", slices.Concat(lists...), in, want)
	}
	// The bitmap alone, whatever the size: it orders the input or
	// leaves it exactly as it was.
	if len(want) > 0 {
		before := slices.Concat(lists...)
		got := slices.Clone(before)
		if ok := orderDense(got); ok && !slices.Equal(got, want) || !ok && !slices.Equal(got, before) {
			t.Fatalf("orderDense(%v) = %v, %v; want %v ordered or the input untouched", before, got, ok, want)
		}
	}
	prefix := Match{Start: 1 << 40, Dist: 3}
	seg := append([]Match{prefix}, slices.Concat(lists...)...)
	SortMatches(seg[1:])
	if seg[0] != prefix || !slices.Equal(seg[1:], want) {
		t.Fatalf("SortMatches on the segment after a prefix = %v, want %v after it", seg, want)
	}
}

// run returns one list of the starts lo, lo+step, … (n of them), each
// reported with Dist -1 as a range traversal does.
func run(lo, step, n int) []Match {
	out := make([]Match, n)
	for i := range out {
		out[i] = Match{Start: lo + i*step, Dist: -1}
	}
	slices.Reverse(out) // traversal order is not start order
	return out
}

func TestOrderMatches(t *testing.T) {
	const last = 199_899 // the last window of 200 000 values at ℓ = 100
	cases := map[string][][]Match{
		"empty":        nil,
		"empty lists":  {nil, {}},
		"one":          {{{Start: 64, Dist: -1}}},
		"word edges":   {{{Start: 64, Dist: -1}, {Start: 0, Dist: -1}, {Start: 255, Dist: -1}}, {{Start: 63, Dist: -1}, {Start: 127, Dist: -1}, {Start: 192, Dist: -1}, {Start: 128, Dist: -1}, {Start: 191, Dist: -1}}},
		"last window":  {run(last-300, 3, 100), {{Start: last, Dist: -1}}},
		"dense units":  {run(1000, 2, 500), run(1001, 2, 500), nil, run(5000, 1, 64)},
		"sparse":       {run(0, 1000, 50), {{Start: last, Dist: -1}}},
		"negative":     {run(-100, 1, 100), run(0, 1, 10)},
		"repeat":       {run(0, 1, 100), {{Start: 50, Dist: -1}}},
		"exact dist":   {run(0, 1, 100), {{Start: 200, Dist: 0.25}}},
		"repeat dists": {{{Start: 9, Dist: 0.5}, {Start: 9, Dist: -1}, {Start: 9, Dist: 0}, {Start: 2, Dist: -1}}},
	}
	for name, lists := range cases {
		t.Run(name, func(t *testing.T) { checkOrder(t, lists) })
	}
}

// TestOrderMatchesAllocs holds the ordering step to its promise: an
// answer too small for the bitmap allocates nothing, and a dense one
// nothing once a long enough bitmap has been freed.
func TestOrderMatchesAllocs(t *testing.T) {
	dense := slices.Concat(run(0, 3, 4000), run(1, 3, 4000))
	small := run(10, 1, minDense)
	few := run(5, 1, minDense-1)
	for name, f := range map[string]func(){
		"empty": func() { SortMatches(nil) },
		"few":   func() { SortMatches(few) },
		"dense": func() { SortMatches(dense) },
		"mixed": func() { SortMatches(small); SortMatches(dense) },
	} {
		if avg := testing.AllocsPerRun(20, f); avg != 0 {
			t.Errorf("%s: %.0f allocs, want 0", name, avg)
		}
	}
}

// TestBitmapFreeListKeepsShort: a bitmap too short for one answer stays
// on the free list, and the long enough one below it is handed out, so
// answers of varying size held at once stop allocating once warm.
func TestBitmapFreeListKeepsShort(t *testing.T) {
	bitmapMu.Lock()
	saved := freeBitmaps
	freeBitmaps = make([][]uint64, 0, maxFreeBitmaps)
	bitmapMu.Unlock()
	defer func() { freeBitmaps = saved }()

	long, short := make([]uint64, 100), make([]uint64, 1)
	putBitmap(long)
	putBitmap(short) // on top: a request for 100 words must pass it
	if got := getBitmap(100); &got[0] != &long[0] {
		t.Errorf("getBitmap(100) did not hand out the freed 100-word bitmap")
	}
	if len(freeBitmaps) != 1 || &freeBitmaps[0][0] != &short[0] {
		t.Errorf("free list %d long after the request, want the short bitmap kept", len(freeBitmaps))
	}
}

// FuzzOrderMatches holds the ordering step equal to a by-start
// slices.SortFunc on any input. Every 3 bytes of raw make one match:
// its start base + stride·off (off < 2¹⁴, so stride 0 repeats every
// start and a wide stride makes the set sparse), a new list when the
// third byte's top bit is set, and an exact distance instead of -1 when
// its low seven bits are all set. Repeated starts and exact distances
// must take the comparison sort and keep every match as it is.
func FuzzOrderMatches(f *testing.F) {
	enc := func(off int, newList, exact bool) []byte {
		b := []byte{byte(off), byte(off>>8) & 0x3f, 0}
		if newList {
			b[2] |= 0x80
		}
		if exact {
			b[1] |= 0x40 // distance 1
			b[2] |= 0x7f
		}
		return b
	}
	seed := func(base int64, stride uint16, offs ...int) {
		var raw []byte
		for i, off := range offs {
			raw = append(raw, enc(off, i%7 == 3, false)...)
		}
		f.Add(base, stride, raw)
	}
	seed(0, 1)
	seed(0, 1, 0)
	seed(0, 1, 63, 0, 64, 127, 128, 65)
	seed(0, 1, 255, 63, 0, 191, 64, 127, 192, 128)
	seed(199_899-300, 1, 300, 299, 0, 150, 64, 63)
	seed(0, 1, 5, 9, 5)
	seed(0, 0, 1, 2, 3)
	seed(-1000, 3, 900, 100, 512, 511, 513, 0)
	seed(0, 5000, 1, 2, 3, 4)
	seed(1<<62, 1, 2, 1, 0)
	dense := make([]int, 300)
	for i := range dense {
		dense[i] = (i * 37) % 1024
	}
	seed(0, 1, dense...)
	f.Add(int64(0), uint16(1), slices.Concat(enc(4, false, false), enc(2, false, true), enc(4, true, true)))

	f.Fuzz(func(t *testing.T, base int64, stride uint16, raw []byte) {
		var lists [][]Match
		var cur []Match
		for i := 0; i+3 <= len(raw); i += 3 {
			b := raw[i : i+3]
			if b[2]&0x80 != 0 {
				lists, cur = append(lists, cur), nil
			}
			m := Match{Start: int(base) + int(stride)*(int(b[0])|int(b[1]&0x3f)<<8), Dist: -1}
			if b[2]&0x7f == 0x7f {
				m.Dist = float64(b[1] >> 6)
			}
			cur = append(cur, m)
		}
		lists = append(lists, cur)
		checkOrder(t, lists)
		// The bitmap must come back clean: a second pass agrees.
		checkOrder(t, lists)
	})
}

// BenchmarkSortMatches sets the bitmap against the comparison sort on
// dense answers of n matches; the crossover is minDense.
func BenchmarkSortMatches(b *testing.B) {
	// n = 400 is about one shard's share of a 4-shard ε = 1.0 answer on
	// EEG 200 k: 400 twins over 50 000 windows. At ε = 0.2 nine answers
	// in ten have one match and most of the rest two or three.
	for _, n := range []int{1, 2, 3, 4, 5, 6, 8, 12, 32, 128, 400} {
		in := make([]Match, n)
		for i := range in {
			in[i] = Match{Start: (i * 7919) % (n * 125), Dist: -1}
		}
		ms := make([]Match, n)
		b.Run(fmt.Sprintf("bitmap/n=%d", n), func(b *testing.B) {
			for range b.N {
				copy(ms, in)
				orderDense(ms)
			}
		})
		b.Run(fmt.Sprintf("sort/n=%d", n), func(b *testing.B) {
			for range b.N {
				copy(ms, in)
				slices.SortFunc(ms, byStart)
			}
		})
	}
}

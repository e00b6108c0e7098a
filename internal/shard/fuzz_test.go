package shard

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"twinsearch/internal/arena"
	"twinsearch/internal/core"
	"twinsearch/internal/oracle"
	"twinsearch/internal/series"
)

// FuzzLoadSharded feeds arbitrary byte streams to the one container
// loader, OpenArena, in both arena kinds (the segment layer has core's
// FuzzLoadFrozen). A heap arena is validated in full, so a stream it
// accepts is an index: the partition invariants hold and a query gets
// the oracle's answer, whatever tree shape the bytes describe. A mapped
// one (a temporary file) trusts the writer for the ownership scan and
// bound containment (see OpenArena), so a stream it accepts must
// traverse safely, and must answer like the oracle whenever it also
// passes the full check. Neither may panic, and the only allocations a
// header commands are bounded by maxShards. Every input runs as given
// and with the container header's checksum recomputed (reseal), since a
// guided fuzzer cannot guess a CRC and the validation behind it must
// hold against a writer who can.
func FuzzLoadSharded(f *testing.F) {
	const l = 16
	ext := series.NewExtractor(synthetic(400, 21), series.NormGlobal)
	sh, err := Build(ext, Config{Config: core.Config{L: l}, Shards: 3})
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if _, err := sh.WriteTo(&valid); err != nil {
		f.Fatal(err)
	}
	// The second base is the same container as the retired mean-sorted
	// scheme would have marked it: refused at the partition byte.
	for _, base := range [][]byte{valid.Bytes(), markMeanSorted(valid.Bytes())} {
		f.Add(base)
		f.Add(base[:40])
		for _, off := range []int{4, 6, 8, 12, 36, 60, 200} { // version, partition, count, partition array, table, first segment
			mutated := append([]byte(nil), base...)
			mutated[off] ^= 0xFF
			f.Add(mutated)
		}
	}
	f.Add([]byte("TSSH garbage"))
	f.Add([]byte{})
	q := ext.ExtractCopy(100, l)
	want := oracle.Range(ext, q, 0.4)

	f.Fuzz(func(t *testing.T, given []byte) {
		for _, stream := range [][]byte{given, reseal(given)} {
			if got, err := OpenArena(arena.FromBytes(stream), ext, nil); err == nil {
				if err := got.CheckInvariants(); err != nil {
					t.Fatalf("a heap arena accepted a broken index: %v", err)
				}
				if ms := got.Search(q, 0.4); !sameMatches(ms, want) {
					t.Fatalf("a heap arena accepted a stream that answers %v, oracle %v", ms, want)
				}
			}
			mapped, err := OpenArena(mapStream(t, stream), ext, nil)
			if err != nil {
				continue // rejected: fine
			}
			ms := mapped.Search(q, 0.4)
			mapped.SearchTopK(q, 5)
			if mapped.CheckInvariants() == nil && !sameMatches(ms, want) {
				t.Fatalf("a mapped arena accepted a consistent stream that answers %v, oracle %v", ms, want)
			}
		}
	})
}

// FuzzShardTopK holds SearchTopKCtx to the brute-force top-k over the
// windows the index holds, bit for bit, unbounded and under the
// tightest bound a caller may pass: the answer's own k-th distance,
// which the cluster's second phase broadcasts. Pruning is strict, so a
// window tied with the k-th must survive that bound. The series is a
// quantised walk (steps of −2…2), so equal windows and tied distances
// are common, the partition 1–7 contiguous shards at fuzzed
// boundaries, the index all of them or the subset a mask selects (a
// cluster node's view), k anything from 1 to two past the held
// windows, under every norm mode.
func FuzzShardTopK(f *testing.F) {
	const l = 8
	walk := func(n int, seed uint32) []byte {
		b := make([]byte, n)
		for i := range b {
			seed = seed*1664525 + 1013904223
			b[i] = byte(seed >> 24)
		}
		return b
	}
	steps := walk(300, 1)
	// The query at a shard's first and last window; at both ends of the
	// series; an all-tie series; shard 0 smaller than k; a subset that
	// does not hold the container's first shard; a ramp; a ramp whose
	// nearest windows lie across the first held shard's boundary, in a
	// shard the index does not hold.
	f.Add(steps, []byte{100, 200}, uint8(0), uint8(1), uint16(10), uint16(101), uint8(0))
	f.Add(steps, []byte{100, 200}, uint8(0), uint8(0), uint16(10), uint16(100), uint8(3))
	f.Add(steps, []byte{100}, uint8(0), uint8(2), uint16(5), uint16(0), uint8(0))
	f.Add(steps, []byte{100}, uint8(0), uint8(1), uint16(5), uint16(292), uint8(0))
	f.Add(bytes.Repeat([]byte{2}, 120), []byte{30, 60, 90}, uint8(0), uint8(0), uint16(7), uint16(50), uint8(0))
	f.Add(steps, []byte{2, 150}, uint8(0), uint8(1), uint16(9), uint16(1), uint8(0))
	f.Add(steps, []byte{40, 80, 120, 160}, uint8(0b10110), uint8(2), uint16(20), uint16(130), uint8(5))
	f.Add(bytes.Repeat([]byte{3}, 11), []byte{1}, uint8(1), uint8(1), uint16(5), uint16(0), uint8(0))
	f.Add(bytes.Repeat([]byte{3}, 60), []byte{20, 40}, uint8(0b10), uint8(0), uint16(5), uint16(21), uint8(0))

	f.Fuzz(func(t *testing.T, steps, cuts []byte, mask, mode uint8, k, qAt uint16, bend uint8) {
		steps = steps[:min(len(steps), 400)]
		if len(steps) < l {
			return
		}
		data := make([]float64, len(steps))
		for i := 1; i < len(data); i++ {
			data[i] = data[i-1] + float64(int(steps[i]%5)-2)
		}
		ext := series.NewExtractor(data, allModes[int(mode)%len(allModes)])
		count := series.NumSubsequences(len(data), l)
		bounds := []int{0, count}
		for _, c := range cuts[:min(len(cuts), 6)] {
			if count > 1 {
				bounds = append(bounds, 1+int(c)%(count-1))
			}
		}
		slices.Sort(bounds)
		bounds = slices.Compact(bounds)
		full, err := Build(ext, Config{Config: core.Config{L: l, MinCap: 2, MaxCap: 5}, Boundaries: bounds})
		if err != nil {
			t.Fatal(err)
		}
		ix := full
		var held []int
		for i := range len(bounds) - 1 {
			if mask>>i&1 == 1 {
				held = append(held, i)
			}
		}
		if len(held) > 0 {
			var stream bytes.Buffer
			if _, err := full.WriteTo(&stream); err != nil {
				t.Fatal(err)
			}
			if ix, err = OpenArenaShards(arena.FromBytes(stream.Bytes()), ext, nil, held); err != nil {
				t.Fatal(err)
			}
		}

		q := ext.ExtractCopy(int(qAt)%count, l)
		for j := range q {
			q[j] += float64(bend>>j&1) / 2
		}
		kk := 1 + int(k)%(ix.Windows()+2)
		var want []series.Match
		for _, m := range oracle.TopK(ext, q, count) {
			if len(want) < kk && ix.holds(m.Start) {
				want = append(want, m)
			}
		}
		got, err := ix.SearchTopKCtx(nil, q, kk, math.Inf(1))
		if err != nil || !sameMatches(got, want) {
			t.Fatalf("unbounded top-%d over shards %v of %v: %v (err %v), oracle %v", kk, held, bounds, got, err, want)
		}
		bound := math.Inf(1)
		if len(want) == kk {
			bound = want[kk-1].Dist
		}
		got, err = ix.SearchTopKCtx(nil, q, kk, bound)
		if err != nil || !sameMatches(got, want) {
			t.Fatalf("top-%d bounded at %v over shards %v of %v: %v (err %v), oracle %v", kk, bound, held, bounds, got, err, want)
		}
	})
}

// holds reports whether the window starting at p is one of the index's.
func (s *Index) holds(p int) bool {
	for i := range s.ids {
		if lo, hi := s.Range(i); lo <= p && p < hi {
			return true
		}
	}
	return false
}

package shard

import (
	"bytes"
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

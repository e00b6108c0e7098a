package twinsearch

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"twinsearch/internal/datasets"
)

// TestHeapOpenContainmentRefusals pins the exact text with which a heap
// open refuses a file whose leaf bounds do not enclose their windows,
// for each normalisation, single and 4-shard:
//
//   - "series": a copy open over a different series of the same length,
//     which every check but containment passes;
//   - "upper", "lower": the file with one lane of one leaf bound moved
//     inward by one float32 step, the two checksums that cover it (the
//     bound section's and the segment header's) resealed as in
//     TestHeapOpenRefusesDuplicatePosition: the first leaf's first upper
//     lane, and the last leaf's last lower lane.
//
// The texts name the first leaf in BFS order that fails and its first
// window outside, so a containment check that skips a leaf, a lane or a
// window — or names another — moves them.
func TestHeapOpenContainmentRefusals(t *testing.T) {
	const n, l = 3000, 50
	data, other := datasets.EEGN(1, n), datasets.EEGN(2, n)
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	dir := t.TempDir()
	// refused is a heap open's text for leaf's bounds not enclosing
	// window, in shard 0 of a sharded index.
	refused := func(shards, leaf, window int) string {
		text := fmt.Sprintf("core: frozen arena: stream is inconsistent with the supplied series: core: frozen: leaf %d bounds do not enclose window %d", leaf, window)
		if shards > 1 {
			text = "shard: opening shard 0: " + text
		}
		return text
	}
	// (leaf, window) named for the series, upper and lower cases,
	// single and 4-shard. Raw and globally normalised values build the
	// same tree, so they are refused alike.
	rawOrGlobal := map[int][3][2]int{1: {{11, 1031}, {11, 1027}, {171, 910}}, 4: {{3, 126}, {3, 140}, {40, 642}}}
	for _, norm := range []struct {
		name  string
		mode  NormMode
		named map[int][3][2]int
	}{
		{"global", NormGlobal, rawOrGlobal},
		{"none", NormNone, rawOrGlobal},
		{"subsequence", NormPerSubsequence, map[int][3][2]int{1: {{11, 786}, {11, 786}, {176, 889}}, 4: {{3, 448}, {3, 446}, {45, 731}}}},
	} {
		for _, shards := range []int{1, 4} {
			opt := Options{L: l, Norm: norm.mode, NormSet: true, Shards: shards}
			eng, err := Open(data, opt)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := eng.SaveIndex(&buf); err != nil {
				t.Fatal(err)
			}
			eng.Close()
			saved := buf.Bytes()

			// The bound cases move one lane of shard 0, whose segment is
			// the whole stream of a single index and follows the TSSH
			// header of a sharded one.
			seg := 0
			if shards > 1 {
				seg = 12 + 8*(shards+1) + 8*shards + 4
			}
			word := func(off int) int { return int(binary.LittleEndian.Uint32(saved[seg+off:])) }
			at := func(off int) int { return seg + int(binary.LittleEndian.Uint64(saved[seg+off:])) }
			nodes, leafStart := word(40), word(44)
			// moveLane moves lane of node's row in section s (3 upper, 4
			// lower) one float32 step toward to, and reseals the stream.
			moveLane := func(s, node, lane int, to float64) []byte {
				moved := bytes.Clone(saved)
				from, end := at(48+8*s), at(56+8*s)
				off := from + 4*(node*l+lane)
				b := math.Float32frombits(binary.LittleEndian.Uint32(moved[off:]))
				binary.LittleEndian.PutUint32(moved[off:], math.Float32bits(math.Nextafter32(b, float32(to))))
				binary.LittleEndian.PutUint32(moved[seg+96+4*s:], crc32.Checksum(moved[from:end], castagnoli))
				binary.LittleEndian.PutUint32(moved[seg+116:], crc32.Checksum(moved[seg:seg+116], castagnoli))
				return moved
			}

			for k, c := range []struct {
				name   string
				stream []byte
				series []float64
			}{
				{"series", saved, other},
				// The first leaf's first upper lane, moved down.
				{"upper", moveLane(3, leafStart, 0, math.Inf(-1)), data},
				// The last leaf's last lower lane — with L = 50, one of a
				// vector kernel's n mod 4 tail lanes — moved up.
				{"lower", moveLane(4, nodes-1, l-1, math.Inf(1)), data},
			} {
				name := fmt.Sprintf("%s/shards=%d/%s", norm.name, shards, c.name)
				want := refused(shards, norm.named[shards][k][0], norm.named[shards][k][1])
				path := filepath.Join(dir, fmt.Sprintf("%s-%d-%s.tsidx", norm.name, shards, c.name))
				if err := os.WriteFile(path, c.stream, 0o644); err != nil {
					t.Fatal(err)
				}
				open := Options{L: l, Norm: norm.mode, NormSet: true}
				for entry, reopen := range map[string]func() (*Engine, error){
					"OpenSaved":     func() (*Engine, error) { return OpenSaved(c.series, bytes.NewReader(c.stream), open) },
					"OpenSavedFile": func() (*Engine, error) { return OpenSavedFile(c.series, path, open) },
				} {
					re, err := reopen()
					if err == nil {
						re.Close()
						t.Errorf("%s: %s accepted the file", name, entry)
						continue
					}
					if got := err.Error(); got != want {
						t.Errorf("%s: %s refused it with\n %q\nwant\n %q", name, entry, got, want)
					}
				}
			}
		}
	}
}

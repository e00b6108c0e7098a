package twinsearch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"twinsearch/internal/core"
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
//     TestHeapOpenRefusesDuplicatePosition: the first leaf's upper bound
//     on the first series lane, and the last leaf's lower bound on the
//     last — each addressed through the stored lane order (storedLane).
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
			// moveLane moves node's bound on series lane lane in section
			// s (3 upper, 4 lower) one float32 step toward to, and
			// reseals the stream.
			moveLane := func(s, node, lane int, to float64) []byte {
				moved := bytes.Clone(saved)
				from, end := at(48+8*s), at(56+8*s)
				off := from + 4*(node*l+storedLane(l, lane))
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
				// The last leaf's last lower lane — with L = 50, one of
				// the enclosure kernel's n mod 4 tail lanes, which it
				// folds in series order — moved up.
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

// storedLane is the lane of a bound row of l lanes that holds series
// lane lane: the index of lane in core.LaneOrder(l).
func storedLane(l, lane int) int {
	return slices.Index(core.LaneOrder(l), int32(lane))
}

// segmentAt is where shard 0's TSFZ segment starts in a saved stream:
// at 0 for a single index, past the TSSH header for a sharded one.
func segmentAt(shards int) int {
	if shards > 1 {
		return 12 + 8*(shards+1) + 8*shards + 4
	}
	return 0
}

// segmentWord reads the u32 at off of the TSFZ segment at seg.
func segmentWord(stream []byte, seg, off int) int {
	return int(binary.LittleEndian.Uint32(stream[seg+off:]))
}

// sectionLane is where node's bound on series lane lane (or, in
// sections 0 and 1, the node's entry) lies in section s of the TSFZ
// segment at seg, whose rows are l lanes in stored order: 0 first, 1
// count, 3 upper, 4 lower.
func sectionLane(stream []byte, seg, l, s, node, lane int) int {
	from := seg + int(binary.LittleEndian.Uint64(stream[seg+48+8*s:]))
	if s < 2 {
		return from + 4*node
	}
	return from + 4*(node*l+storedLane(l, lane))
}

// nodeEntry reads node's entry of section s (0 first, 1 count) of the
// TSFZ segment at seg.
func nodeEntry(stream []byte, seg, s, node int) int {
	return int(binary.LittleEndian.Uint32(stream[sectionLane(stream, seg, 0, s, node, 0):]))
}

// boundLane reads node's float32 bound on series lane lane in the TSFZ
// segment at seg.
func boundLane(stream []byte, seg, l, s, node, lane int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(stream[sectionLane(stream, seg, l, s, node, lane):]))
}

// withBoundLane returns a copy of stream with node's bound on series
// lane lane in the TSFZ segment at seg set to v, and the two checksums
// that cover it — the section's and the segment header's — resealed.
func withBoundLane(stream []byte, seg, l, s, node, lane int, v float32) []byte {
	moved := bytes.Clone(stream)
	binary.LittleEndian.PutUint32(moved[sectionLane(moved, seg, l, s, node, lane):], math.Float32bits(v))
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	from := seg + int(binary.LittleEndian.Uint64(moved[seg+48+8*s:]))
	end := seg + int(binary.LittleEndian.Uint64(moved[seg+56+8*s:]))
	binary.LittleEndian.PutUint32(moved[seg+96+4*s:], crc32.Checksum(moved[from:end], castagnoli))
	binary.LittleEndian.PutUint32(moved[seg+116:], crc32.Checksum(moved[seg:seg+116], castagnoli))
	return moved
}

// saveStream builds an index over data with opt and returns its saved
// stream.
func saveStream(t *testing.T, data []float64, opt Options) []byte {
	t.Helper()
	eng, err := Open(data, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var buf bytes.Buffer
	if err := eng.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// heapOpenRefusal opens stream over data with OpenSaved and, written to
// a file in dir, with OpenSavedFile (read, not mapped), and returns the
// text both refused it with; it fails the test when either accepts it
// or when the two texts differ.
func heapOpenRefusal(t *testing.T, name, dir string, stream []byte, data []float64, opt Options) string {
	t.Helper()
	path := filepath.Join(dir, name+".tsidx")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, stream, 0o644); err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, reopen := range []func() (*Engine, error){
		func() (*Engine, error) { return OpenSaved(data, bytes.NewReader(stream), opt) },
		func() (*Engine, error) { return OpenSavedFile(data, path, opt) },
	} {
		re, err := reopen()
		if err == nil {
			re.Close()
			t.Fatalf("%s: a heap open accepted the file", name)
		}
		texts = append(texts, err.Error())
	}
	if texts[0] != texts[1] {
		t.Fatalf("%s: OpenSaved refused it with\n %q\nOpenSavedFile with\n %q", name, texts[0], texts[1])
	}
	return texts[0]
}

// TestHeapOpenRefusesChildOutsideParent pins the text with which a heap
// open refuses a file whose internal node does not enclose a child's
// bounds, single and 4-shard: one lane of one child row moved one
// float32 step outside its parent's, the checksums resealed —
//
//   - "upper": the root's first child, upper stored lane 0 (series lane
//     0; a whole 8-lane step of a vector kernel), one step above the
//     root's;
//   - "lower": the last internal node's last child, lower stored lane
//     49 (at L = 50, one of the n mod 8 tail lanes — parent and child
//     rows share the stored order, so the kernel compares stored lanes),
//     one step below its parent's.
//
// Moving a child's bound outward keeps the child's own containment, so
// the parent is the first node refused and the text names it and the
// child.
func TestHeapOpenRefusesChildOutsideParent(t *testing.T) {
	const n, l = 3000, 50
	data := datasets.EEGN(1, n)
	dir := t.TempDir()
	for _, shards := range []int{1, 4} {
		saved := saveStream(t, data, Options{L: l, Shards: shards})
		seg := segmentAt(shards)
		last := segmentWord(saved, seg, 44) - 1 // the last internal node
		lastChild := nodeEntry(saved, seg, 0, last) + nodeEntry(saved, seg, 1, last) - 1
		for _, c := range []struct {
			name                 string
			s, parent, child, ln int
			to                   float64
		}{
			{"upper", 3, 0, 1, 0, math.Inf(1)},
			{"lower", 4, last, lastChild, int(core.LaneOrder(l)[l-1]), math.Inf(-1)},
		} {
			name := fmt.Sprintf("shards=%d/%s", shards, c.name)
			out := math.Nextafter32(boundLane(saved, seg, l, c.s, c.parent, c.ln), float32(c.to))
			stream := withBoundLane(saved, seg, l, c.s, c.child, c.ln, out)
			want := fmt.Sprintf("core: frozen arena: stream is inconsistent with the supplied series: core: frozen: node %d bounds do not enclose child %d", c.parent, c.child)
			if shards > 1 {
				want = "shard: opening shard 0: " + want
			}
			if got := heapOpenRefusal(t, name, dir, stream, data, Options{L: l}); got != want {
				t.Errorf("%s: refused with\n %q\nwant\n %q", name, got, want)
			}
		}
	}
}

// TestHeapOpenRefusalIndependentOfWorkers corrupts two leaves at the
// two ends of the BFS order — the first leaf's first upper lane and the
// last leaf's last lower lane, each moved one float32 step inward — so
// that a containment check cut into units by Options.Workers meets them
// in different units, and requires one refusal at 1, 2, 3 and 8
// workers, single and 4-shard: the one naming the first leaf. Each
// corruption alone is refused too, naming its own leaf.
func TestHeapOpenRefusalIndependentOfWorkers(t *testing.T) {
	const n, l = 3000, 50
	data := datasets.EEGN(1, n)
	dir := t.TempDir()
	for _, shards := range []int{1, 4} {
		saved := saveStream(t, data, Options{L: l, Shards: shards})
		seg := segmentAt(shards)
		nodes, leafStart := segmentWord(saved, seg, 40), segmentWord(saved, seg, 44)
		inward := func(stream []byte, s, node, lane int, to float64) []byte {
			v := math.Nextafter32(boundLane(stream, seg, l, s, node, lane), float32(to))
			return withBoundLane(stream, seg, l, s, node, lane, v)
		}
		first := inward(saved, 3, leafStart, 0, math.Inf(-1))
		lastOnly := inward(saved, 4, nodes-1, l-1, math.Inf(1))
		both := inward(first, 4, nodes-1, l-1, math.Inf(1))
		names := func(text string, leaf int) bool {
			return strings.Contains(text, fmt.Sprintf("core: frozen: leaf %d bounds do not enclose window ", leaf))
		}
		var want string
		for _, workers := range []int{1, 2, 3, 8} {
			opt := Options{L: l, Workers: workers}
			name := fmt.Sprintf("shards=%d/workers=%d", shards, workers)
			got := heapOpenRefusal(t, name+"/both", dir, both, data, opt)
			if want == "" {
				want = got
				if !names(want, leafStart) {
					t.Fatalf("%s: refused with %q, which does not name leaf %d", name, want, leafStart)
				}
			}
			if got != want {
				t.Errorf("%s: refused with\n %q\nat 1 worker with\n %q", name, got, want)
			}
			if got := heapOpenRefusal(t, name+"/first", dir, first, data, opt); got != want {
				t.Errorf("%s: the first leaf alone refused with\n %q\nwant\n %q", name, got, want)
			}
			if got := heapOpenRefusal(t, name+"/last", dir, lastOnly, data, opt); !names(got, nodes-1) {
				t.Errorf("%s: the last leaf alone refused with %q, which does not name leaf %d", name, got, nodes-1)
			}
		}
	}
}

// TestHeapOpenErrorOrder pins which refusal a heap open reports when
// its passes, which overlap on the engine's executor, fail together, at
// 1, 2 and 8 workers:
//
//   - a file with one byte of a section flipped, opened over a series it
//     does not fit, is refused with the section's checksum text, single
//     and 4-shard — "upper", where the containment check refuses the
//     series as well, and "positions", where a position beyond the
//     series fails the structural check;
//   - a series holding a NaN, opened from a file that does not exist or
//     a stream that cannot be read, is refused with the non-finite text.
func TestHeapOpenErrorOrder(t *testing.T) {
	const n, l = 3000, 50
	data, other := datasets.EEGN(1, n), datasets.EEGN(2, n)
	dir := t.TempDir()
	nan := append([]float64(nil), data...)
	nan[1234] = math.NaN()
	for _, workers := range []int{1, 2, 8} {
		opt := Options{L: l, Workers: workers}
		for _, shards := range []int{1, 4} {
			saved := saveStream(t, data, Options{L: l, Shards: shards})
			seg := segmentAt(shards)
			name := fmt.Sprintf("workers=%d/shards=%d", workers, shards)
			prefix := ""
			if shards > 1 {
				prefix = "shard: opening shard 0: "
			}
			if got := heapOpenRefusal(t, name+"/series", dir, saved, other, opt); !strings.HasPrefix(got, prefix+"core: frozen arena: stream is inconsistent with the supplied series: core: frozen: leaf ") {
				t.Fatalf("%s: the other series alone refused with %q, not by containment", name, got)
			}
			for _, c := range []struct {
				section string
				s, off  int
				b       byte
			}{
				{"upper", 3, 0, 0x01},     // the lowest mantissa bit of the root's first lane
				{"positions", 2, 3, 0x7f}, // the high byte of the first position
			} {
				flipped := bytes.Clone(saved)
				flipped[sectionLane(flipped, seg, l, c.s, 0, 0)+c.off] ^= c.b
				got := heapOpenRefusal(t, name+"/"+c.section, dir, flipped, other, opt)
				want := prefix + "core: load frozen: section " + c.section + " checksum "
				if !strings.HasPrefix(got, want) || !strings.HasSuffix(got, ": the file is damaged") {
					t.Errorf("%s: a flipped byte in %s, over the other series, refused with\n %q\nwant the checksum text %q…", name, c.section, got, want)
				}
			}
		}
		wantNaN := "twinsearch: non-finite value NaN at position 1234; clean or impute missing samples first"
		for entry, open := range map[string]func() (*Engine, error){
			"OpenSavedFile": func() (*Engine, error) { return OpenSavedFile(nan, filepath.Join(dir, "missing.tsfz"), opt) },
			"OpenSaved":     func() (*Engine, error) { return OpenSaved(nan, iotest.ErrReader(errors.New("unreadable")), opt) },
		} {
			re, err := open()
			if err == nil {
				re.Close()
				t.Fatalf("workers=%d: %s opened a NaN series without an index", workers, entry)
			}
			if err.Error() != wantNaN {
				t.Errorf("workers=%d: %s refused a NaN series without an index with\n %q\nwant\n %q", workers, entry, err, wantNaN)
			}
		}
	}
}

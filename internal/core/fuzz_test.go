package core

import (
	"bytes"
	"slices"
	"testing"

	"twinsearch/internal/arena"
	"twinsearch/internal/datasets"
	"twinsearch/internal/mbts"
	"twinsearch/internal/oracle"
	"twinsearch/internal/series"
)

// FuzzLoadFrozen feeds arbitrary byte streams to the one index loader,
// FrozenFromArena, in both arena kinds: each must reject a stream with
// an error or yield an arena that traverses safely — never a panic or
// an out-of-range index. Run with `go test -fuzz FuzzLoadFrozen
// ./internal/core` for exploration; the seed corpus (a valid stream plus
// mutations) runs as part of the normal test suite. A heap arena is
// verified in full, so a stream it accepts satisfies CheckInvariants
// and answers like the oracle over the windows it holds (that they are
// every window, once, is the partition's check a layer up); a mapped one
// (a temporary file) gets the structural half, so its accepted arenas
// are checked against CheckStructure and then traversed.
//
// Every input runs twice, as given and with its checksums recomputed
// (reseal): a guided fuzzer cannot guess a CRC, and the validation
// behind the checksums is what must hold against a writer who can.
func FuzzLoadFrozen(f *testing.F) {
	ts := datasets.RandomWalk(91, 600)
	ext := series.NewExtractor(ts, series.NormGlobal)
	fz, err := Build(ext, Config{L: 40})
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if _, err := fz.WriteTo(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	retired := append([]byte(nil), valid.Bytes()...)
	retired[4] = 2 // a version 2 header: refused, whatever follows
	f.Add(retired)
	f.Add(valid.Bytes()[:20])
	f.Add(valid.Bytes()[:frozenHeaderSize])
	f.Add([]byte("TSFZ garbage"))
	f.Add([]byte{})
	for _, off := range []int{6, 24, 48, 90, 99, 117, 130, valid.Len() - 1} { // mode, size, offsets, checksums, sections
		mutated := append([]byte(nil), valid.Bytes()...)
		if len(mutated) > off {
			mutated[off] ^= 0xFF
		}
		f.Add(mutated)
	}

	q := ext.ExtractCopy(7, 40)
	twins := oracle.Range(ext, q, 0.5)

	f.Fuzz(func(t *testing.T, given []byte) {
		for _, stream := range [][]byte{given, reseal(given, ext)} {
			if got, _, err := FrozenFromArena(arena.FromBytes(stream), 0, ext); err == nil {
				if err := got.CheckInvariants(); err != nil {
					t.Fatalf("a heap arena accepted an inconsistent stream: %v", err)
				}
				held := map[int]int{}
				for _, p := range got.Positions() {
					held[int(p)]++
				}
				var want []series.Match
				for _, m := range twins {
					for range held[m.Start] {
						want = append(want, m)
					}
				}
				if ms := got.Search(q, 0.5); !slices.Equal(ms, want) {
					t.Fatalf("a heap arena accepted a stream that answers %v, oracle %v over its windows", ms, want)
				}
				got.SearchTopK(q, 5)
			}
			mapped, _, err := FrozenFromArena(mapStream(t, stream), 0, ext)
			if err != nil {
				continue // rejected: fine
			}
			if err := mapped.CheckStructure(); err != nil {
				t.Fatalf("a mapped arena accepted a structurally invalid stream: %v", err)
			}
			mapped.Search(q, 0.5)
			mapped.SearchTopK(q, 5)
		}
	})
}

// FuzzFrozenTraversal derives a series and query parameters from the
// fuzz input, builds the tree, freezes it, and requires every search
// path to give the oracle's answer — fuzzing the frozen traversal
// itself rather than the decoder.
func FuzzFrozenTraversal(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint8(0), uint8(40))
	f.Add([]byte{200, 100, 50, 25, 12, 6, 3, 1}, uint8(1), uint8(130))
	f.Add(bytes.Repeat([]byte{7, 250}, 40), uint8(2), uint8(90))

	f.Fuzz(func(t *testing.T, raw []byte, modeByte, epsByte uint8) {
		if len(raw) < 8 {
			return
		}
		// Each input byte becomes a step of a bounded walk; L is small so
		// even short inputs index several windows.
		const l = 6
		ts := make([]float64, len(raw))
		v := 0.0
		for i, b := range raw {
			v += (float64(b) - 127.5) / 64
			ts[i] = v
		}
		mode := series.NormMode(modeByte % 3)
		if mode == series.NormPerSubsequence {
			// Constant windows have σ = 0; the extractor rejects them, so
			// nudge values apart deterministically.
			for i := range ts {
				ts[i] += float64(i%l) * 1e-3
			}
		}
		eps := float64(epsByte) / 100
		ext := series.NewExtractor(ts, mode)
		fz, err := Build(ext, Config{L: l, MinCap: 2, MaxCap: 4})
		if err != nil {
			return // series too short etc.
		}
		checkSealed(t, fz, 0, fz.Len())
		q := ext.ExtractCopy(len(ts)%fz.Len(), l)

		exact := oracle.Range(ext, q, eps)
		got, st := fz.SearchStats(q, eps)
		if !slices.Equal(exact, got) || st.Results != len(got) || st.Abandons != st.Candidates-st.Results {
			t.Fatalf("SearchStats: %v/%+v, oracle %v", got, st, exact)
		}
		if want, got := oracle.TopK(ext, q, 3), fz.SearchTopK(q, 3); !slices.Equal(want, got) {
			t.Fatalf("SearchTopK: %v, oracle %v", got, want)
		}
		if mode != series.NormPerSubsequence {
			want := oracle.Range(ext, q[:l/2], eps)
			if got := searchShorter(fz, q[:l/2], eps); !slices.Equal(want, got) {
				t.Fatalf("shorter query: %v, oracle %v", got, want)
			}
		}
	})
}

// FuzzExtendAnswer checks the tail scans as the result cache uses them:
// the answer over a series' first windows, extended over the windows an
// append gained, is the oracle's answer over all of them —
// extend(answer(N0), N0→N1) ≡ answer(N1) — for range and top-k, every
// normalization, any split, ε down to 0 and k on either side of both
// window counts; and the top-k scan books every gained window as a
// candidate.
func FuzzExtendAnswer(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(0), uint8(40), uint8(3), uint8(2))
	f.Add([]byte{200, 100, 50, 25, 12, 6, 3, 1, 0, 0, 0, 0, 0, 0}, uint8(1), uint8(0), uint8(1), uint8(0))
	f.Add(bytes.Repeat([]byte{7, 250}, 40), uint8(2), uint8(90), uint8(60), uint8(33))
	f.Add(bytes.Repeat([]byte{128}, 30), uint8(1), uint8(0), uint8(200), uint8(11))

	f.Fuzz(func(t *testing.T, raw []byte, modeByte, epsByte, kByte, splitByte uint8) {
		const l = 6
		if len(raw) < l+1 {
			return
		}
		// The walk repeats values (a zero step is byte 128 → +0.0078,
		// so quantise), which is what makes distance ties and ε = 0
		// matches reachable.
		ts := make([]float64, len(raw))
		v := 0.0
		for i, b := range raw {
			v += float64(int(b)/16 - 8)
			ts[i] = v
		}
		mode := series.NormMode(modeByte % 3)
		total := series.NumSubsequences(len(ts), l)
		n0 := 1 + int(splitByte)%(total-1) // 1 ≤ n0 < total: something cached, something gained
		ext := series.NewExtractor(slices.Clone(ts[:n0+l-1]), mode)
		q := ext.ExtractCopy(int(kByte)%n0, l)
		eps, k := float64(epsByte)/100, int(kByte)

		range0, top0 := oracle.Range(ext, q, eps), oracle.TopK(ext, q, k)
		ext.Append(ts[n0+l-1:]...)
		if got, want := ScanTail(ext, q, eps, n0, total, slices.Clone(range0), nil), oracle.Range(ext, q, eps); !slices.Equal(got, want) {
			t.Fatalf("ScanTail %d→%d: %v, oracle %v (from %v)", n0, total, got, want, range0)
		}
		var st Stats
		if got, want := ScanTailTopK(ext, q, k, n0, total, top0, &st), oracle.TopK(ext, q, k); !slices.Equal(got, want) {
			t.Fatalf("ScanTailTopK k=%d %d→%d: %v, oracle %v (from %v)", k, n0, total, got, want, top0)
		}
		if k > 0 && st.Candidates != total-n0 {
			t.Fatalf("ScanTailTopK k=%d %d→%d: %d candidates booked", k, n0, total, st.Candidates)
		}
	})
}

// rawStore serves the raw series the way tsbench's disk store does,
// counting its reads.
type rawStore struct {
	data  []float64
	reads int
}

func (r *rawStore) ReadAt(dst []float64, p int) error {
	r.reads++
	copy(dst, r.data[p:p+len(dst)])
	return nil
}

// FuzzLeafVerify holds the one verification step every method shares,
// series.Verifier, to the definition (internal/oracle) on every window
// of a fuzzed series, for every normalisation and any query length:
// handed over as small leaves and one wide one, in memory and over a
// store — one ReadAt per candidate there. Range search through verify
// must keep exactly the oracle's twins, with every window counted as a
// candidate and every rejection as an abandon. Top-k through the same
// sweep must give the oracle's answer, ties at the k-th place included,
// with the counters a kernel call per candidate — the limit re-read
// before each — reports.
func FuzzLeafVerify(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(0), uint8(40), uint8(5), uint8(2))
	f.Add([]byte{200, 100, 50, 25, 12, 6, 3, 1, 0, 0, 0, 0, 0, 0}, uint8(1), uint8(0), uint8(0), uint8(0))
	f.Add(bytes.Repeat([]byte{7, 250}, 60), uint8(2), uint8(90), uint8(3), uint8(33))
	f.Add(bytes.Repeat([]byte{128}, 90), uint8(1), uint8(0), uint8(4), uint8(11))
	f.Add(bytes.Repeat([]byte{16, 240, 128}, 30), uint8(0), uint8(100), uint8(2), uint8(70))

	f.Fuzz(func(t *testing.T, raw []byte, modeByte, epsByte, lenByte, kByte uint8) {
		const maxL = 6
		l := 1 + int(lenByte)%maxL
		if len(raw) < l+1 || len(raw) > 400 {
			return
		}
		// Quantised steps: repeated values, so ties and ε = 0 matches.
		ts := make([]float64, len(raw))
		v := 0.0
		for i, b := range raw {
			v += float64(int(b)/16 - 8)
			ts[i] = v
		}
		mode := series.NormMode(modeByte % 3)
		ext := series.NewExtractor(ts, mode)
		total := series.NumSubsequences(len(ts), l)
		q := ext.ExtractCopy(int(kByte)%total, l)
		q[int(epsByte)%l] += float64(int(lenByte)/maxL%4) / 4 // a near miss as often as a twin
		eps, k := float64(epsByte)/100, 1+int(kByte)%(total+2)

		starts := make([]int32, total)
		for p := range starts {
			starts[p] = int32(p)
		}
		leaves := func(visit func(leaf []int32)) { // small leaves, then the rest as one
			at := 0
			for ; at < min(total, 20); at += 5 {
				visit(starts[at:min(at+5, total)])
			}
			if at < total {
				visit(starts[at:])
			}
		}

		store := &rawStore{data: ts}
		stored := series.NewExtractor(ts, mode)
		stored.AttachStore(store)
		wantRange, wantTop := oracle.Range(ext, q, eps), oracle.TopK(ext, q, k)
		for name, e := range map[string]*series.Extractor{"memory": ext, "store": stored} {
			store.reads = 0
			ver := series.MakeVerifier(e, q, eps)
			var got []series.Match
			var st Stats
			leaves(func(leaf []int32) { got = verify(&ver, leaf, got, &st) })
			if !slices.Equal(got, wantRange) || st.Candidates != total || st.Abandons != total-len(wantRange) {
				t.Fatalf("%s: verify accepts %v (%+v), oracle %v of %d", name, got, st, wantRange, total)
			}
			if onStore := name == "store"; onStore && store.reads != total || !onStore && store.reads != 0 {
				t.Fatalf("%s: %d store reads for %d candidates", name, store.reads, total)
			}

			// Top-k: a sweep per leaf, and a sweep per candidate — the
			// limit re-read before each kernel call — as the reference.
			swept, single := newTopK(k, nil), newTopK(k, nil)
			leaves(func(leaf []int32) {
				swept.offer(&ver, leaf)
				for i := range leaf {
					single.offer(&ver, leaf[i:i+1])
				}
			})
			if swept.st != single.st {
				t.Fatalf("%s top-%d counters: swept %+v, per candidate %+v", name, k, swept.st, single.st)
			}
			if got := swept.sorted(); !slices.Equal(got, wantTop) || !slices.Equal(single.sorted(), wantTop) {
				t.Fatalf("%s top-%d: swept %v, oracle %v", name, k, got, wantTop)
			}
		}
	})
}

// FuzzChooseChild holds the insert descent's block chooser to the
// per-child reference loop (chooseChildReference): on grid-valued
// sibling blocks, where ties at 0 and above 0 are common, with
// duplicated rows, and from a hint drawn from [−1, c+2) — stale and out
// of range included — every window must get the same child at the same
// distance, and leave that child's index as the next hint.
//
// Input bytes, taken in order: per child two grid values a lane (the
// band between them; a child whose first byte is ≥ 224 copies the
// previous child's row instead), then windows of L lanes on a wider
// grid, so some lie outside every band.
func FuzzChooseChild(f *testing.F) {
	f.Add([]byte{0, 0, 2, 2, 3, 4, 0}, uint8(0), uint8(1), uint8(1)) // the hint's sibling wins
	f.Add([]byte{0, 3, 1, 2, 0, 3, 1, 2, 1, 2, 1, 2}, uint8(1), uint8(2), uint8(0))
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 1, 240, 9, 9, 9, 2, 2, 5, 5, 0, 1}, uint8(1), uint8(3), uint8(5))
	f.Add(bytes.Repeat([]byte{0, 3, 2, 1, 230, 7}, 12), uint8(2), uint8(5), uint8(1))
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7}, 20), uint8(6), uint8(4), uint8(255))

	f.Fuzz(func(t *testing.T, raw []byte, lByte, cByte, hintByte uint8) {
		l, c := 1+int(lByte)%8, 1+int(cByte)%12
		if len(raw) < (2*c+1)*l {
			return
		}
		bounds := make([]mbts.MBTS, c)
		for i := range bounds {
			lanes := raw[2*i*l : 2*(i+1)*l]
			if i > 0 && lanes[0] >= 224 {
				bounds[i] = bounds[i-1]
				continue
			}
			bounds[i] = mbts.New(l)
			for x := 0; x < l; x++ {
				a, b := float64(lanes[x]%4), float64(lanes[l+x]%4)
				bounds[i].Upper[x], bounds[i].Lower[x] = max(a, b), min(a, b)
			}
		}
		n, ix := parentOf(bounds...), &builder{}
		for j, at := 0, 2*c*l; at+l <= len(raw); j, at = j+1, at+l {
			w := make([]float64, l)
			for x := range w {
				w[x] = float64(raw[at+x]%6) - 1
			}
			n.hint = (int(hintByte)+j)%(c+3) - 1
			want := chooseChildReference(n, w)
			got, dist := ix.chooseChild(n, w)
			if got != want || distTo(got, w) != dist {
				t.Fatalf("window %d %v, %d children: chose child at distance %v, reference chose one at %v",
					j, w, c, dist, distTo(want, w))
			}
			if n.children[n.hint] != got {
				t.Fatalf("window %d: hint left at %d, not at the chosen child", j, n.hint)
			}
		}
	})
}

package core

import (
	"bytes"
	"slices"
	"testing"

	"twinsearch/internal/arena"
	"twinsearch/internal/datasets"
	"twinsearch/internal/oracle"
	"twinsearch/internal/series"
)

// FuzzLoadFrozen feeds arbitrary byte streams to the two index
// deserializers — the copy loader (LoadFrozen) and the zero-copy one
// (FrozenFromArena): they must be rejected with an error or yield an
// arena that traverses safely — never a panic or an out-of-range
// index. Run with `go test -fuzz FuzzLoadFrozen ./internal/core` for
// exploration; the seed corpus (a valid stream plus mutations) runs as
// part of the normal test suite. The copy loader additionally
// guarantees full invariants (bound containment included); the
// zero-copy path guarantees the structural half, so its accepted
// arenas are checked against CheckStructure and then traversed.
//
// Every input runs twice, as given and with its checksums recomputed
// (reseal): a guided fuzzer cannot guess a CRC, and the validation
// behind the checksums is what must hold against a writer who can.
func FuzzLoadFrozen(f *testing.F) {
	ts := datasets.RandomWalk(91, 600)
	ext := series.NewExtractor(ts, series.NormGlobal)
	ix, err := Build(ext, Config{L: 40})
	if err != nil {
		f.Fatal(err)
	}
	fz := ix.Freeze()
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

	f.Fuzz(func(t *testing.T, given []byte) {
		fuzzLoadFrozen(t, ext, given)
		fuzzLoadFrozen(t, ext, reseal(given, ext))
	})
}

func fuzzLoadFrozen(t *testing.T, ext *series.Extractor, stream []byte) {
	got, err := LoadFrozen(bytes.NewReader(stream), ext)
	if err == nil {
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("LoadFrozen accepted an inconsistent stream: %v", err)
		}
		// An accepted arena must also traverse safely end to end.
		q := ext.ExtractCopy(0, got.L())
		got.Search(q, 0.5)
		got.SearchTopK(q, 5)
	}

	mapped, _, err := FrozenFromArena(arena.FromBytes(stream), 0, ext)
	if err != nil {
		return // rejected: fine
	}
	if err := mapped.CheckStructure(); err != nil {
		t.Fatalf("FrozenFromArena accepted a structurally invalid stream: %v", err)
	}
	q := ext.ExtractCopy(0, mapped.L())
	mapped.Search(q, 0.5)
	mapped.SearchTopK(q, 5)
	mapped.SearchApprox(q, 0.5, 3)
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
		ix, err := Build(ext, Config{L: l, MinCap: 2, MaxCap: 4})
		if err != nil {
			return // series too short etc.
		}
		fz := ix.Freeze()
		if err := fz.CheckInvariants(); err != nil {
			t.Fatalf("Freeze produced an inconsistent arena: %v", err)
		}
		q := ext.ExtractCopy(len(ts)%ix.Len(), l)

		exact := oracle.Range(ext, q, eps)
		got, st := fz.SearchStats(q, eps)
		if !slices.Equal(exact, got) || st.Results != len(got) || st.Abandons != st.Candidates-st.Results {
			t.Fatalf("SearchStats: %v/%+v, oracle %v", got, st, exact)
		}
		if want, got := oracle.TopK(ext, q, 3), fz.SearchTopK(q, 3); !slices.Equal(want, got) {
			t.Fatalf("SearchTopK: %v, oracle %v", got, want)
		}
		approx, ast := fz.SearchApprox(q, eps, 2)
		for _, m := range approx {
			if !slices.Contains(exact, m) {
				t.Fatalf("SearchApprox: %v is not among the twins %v", m, exact)
			}
		}
		if ast.LeavesReached > 2 || ast.Results != len(approx) {
			t.Fatalf("SearchApprox: stats %+v for %d matches", ast, len(approx))
		}
		if mode != series.NormPerSubsequence {
			want := oracle.Range(ext, q[:l/2], eps)
			got, err := fz.SearchPrefix(q[:l/2], eps)
			if err != nil || !slices.Equal(want, got) {
				t.Fatalf("SearchPrefix: %v/%v, oracle %v", got, err, want)
			}
		}
	})
}

// FuzzExtendAnswer checks the tail scans as the result cache uses them:
// the answer over a series' first windows, extended over the windows an
// append gained, is the oracle's answer over all of them —
// extend(answer(N0), N0→N1) ≡ answer(N1) — for range and top-k, every
// normalization, any split, ε down to 0 and k on either side of both
// window counts.
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
		if got, want := ScanTail(ext, q, eps, n0, total, slices.Clone(range0)), oracle.Range(ext, q, eps); !slices.Equal(got, want) {
			t.Fatalf("ScanTail %d→%d: %v, oracle %v (from %v)", n0, total, got, want, range0)
		}
		if got, want := ScanTailTopK(ext, q, k, n0, total, top0), oracle.TopK(ext, q, k); !slices.Equal(got, want) {
			t.Fatalf("ScanTailTopK k=%d %d→%d: %v, oracle %v (from %v)", k, n0, total, got, want, top0)
		}
	})
}

package series

import (
	"slices"

	"twinsearch/internal/mbts/kernel"
)

// batchCap is how many distances a sweep keeps in the verifier's own
// array, and how many windows it lays out as rows at a time.
const batchCap = 64

// Verifier is the verification step of the filter–verification split
// (paper §3.2), the one every method runs: TS-Index's leaves, tail
// scans and top-k, and the sweepline, KV-Index and iSAX baselines hand
// it the window starts their filters let through. A batch is one
// kernel pass — max|q − w| per window, series.Chebyshev bit for bit,
// abandoned once it strictly exceeds the limit (FuzzLeafVerify).
//
// Where a window's values come from depends on the extractor alone. In
// memory, without per-subsequence normalisation, the kernel reads them
// from the series column (kernel.SweepWindows). Otherwise each window
// is first laid out as a row: normalised by Extract's arithmetic, or —
// with a store attached (AttachStore), the paper's disk-resident
// set-up — fetched with one ReadAt of the raw series and re-normalised.
// The rows are then swept by the same kernel.
//
// Hold it by value: its batch scratch lives in the struct, so a
// verifier on the caller's stack keeps the no-match path free of
// allocations. q is in the extractor's value space; eps is a distance,
// never negative.
type Verifier struct {
	ext     *Extractor
	q       []float64
	eps     float64
	scratch [batchCap]float64
	wide    []float64 // the distances of a batch wider than scratch
	rows    []float64 // windows laid out for the kernel, batchCap at a time
}

// MakeVerifier returns the verifier of the windows of ext against q at
// threshold eps, the range threshold Within and Verify test (Sweep
// takes its limit per call).
func MakeVerifier(ext *Extractor, q []float64, eps float64) Verifier {
	return Verifier{ext: ext, q: q, eps: eps}
}

// Sweep scores the windows at starts against the query: entry j of the
// result, valid until the next call, is window j's exact Chebyshev
// distance, or negative when that strictly exceeds limit. An I/O
// failure of the store is an environment error no search can recover
// from, so it panics with context.
func (v *Verifier) Sweep(starts []int32, limit float64) []float64 {
	dists := v.scratch[:]
	if len(starts) > len(dists) {
		v.wide = slices.Grow(v.wide[:0], len(starts))
		dists = v.wide[:cap(v.wide)]
	}
	dists = dists[:len(starts)]
	e := v.ext
	if e.backing == nil && e.mode != NormPerSubsequence {
		kernel.SweepWindows(e.data, starts, v.q, limit, dists)
		return dists
	}
	l := len(v.q)
	v.rows = slices.Grow(v.rows[:0], min(len(starts), batchCap)*l)
	for at := 0; at < len(starts); at += batchCap {
		batch := starts[at:min(at+batchCap, len(starts))]
		rows := v.rows[:len(batch)*l]
		for j, p := range batch {
			e.fetch(int(p), rows[j*l:(j+1)*l])
		}
		kernel.SweepAbandonFlat(rows, rows, l, v.q, limit, dists[at:at+len(batch)])
	}
	return dists
}

// Within appends to out, in the order given, the windows at starts
// that are twins of the query.
func (v *Verifier) Within(starts []int32, out []Match) []Match {
	for j, d := range v.Sweep(starts, v.eps) {
		if d >= 0 {
			out = append(out, Match{Start: int(starts[j]), Dist: -1})
		}
	}
	return out
}

// Verify reports whether the window starting at p is a twin of the
// query: Within over one start.
func (v *Verifier) Verify(p int) bool {
	var m [1]Match
	return len(v.Within([]int32{int32(p)}, m[:0])) == 1
}

package core

import (
	"slices"

	"twinsearch/internal/mbts/kernel"
	"twinsearch/internal/series"
)

// candidates is the verification step of the filter–verification split
// (paper §3.2) for one query, behind every query path: leaves, the
// approximate probe and the tail scans hand it window starts. The
// series is a flat column, so a leaf is one kernel pass over it
// (kernel.SweepWindows): max|q − w| per window — series.Chebyshev, bit
// for bit — abandoned once it strictly exceeds the limit
// (FuzzLeafVerify). eps and limits are distances, never negative (the
// engine validates).
type candidates struct {
	ext     *series.Extractor
	q       []float64
	scratch [sweepScratchCap]float64 // a sweep's result: in the struct, so on the caller's stack
	wide    []float64                // the same, for a leaf wider than the scratch
	block   []float64                // NormPerSubsequence: the swept windows, normalised
	ver     *series.Verifier         // store-backed extractor only
}

// sweep scores the in-memory windows at starts against q: entry j of
// the result, valid until the next sweep, is window j's exact distance,
// or negative when that exceeds limit.
func (c *candidates) sweep(starts []int32, limit float64) []float64 {
	dists := c.scratch[:]
	if len(starts) > len(dists) {
		c.wide = slices.Grow(c.wide[:0], len(starts))
		dists = c.wide[:cap(c.wide)]
	}
	dists = dists[:len(starts)]
	if c.ext.Mode() != series.NormPerSubsequence {
		kernel.SweepWindows(c.ext.Data(), starts, c.q, limit, dists)
		return dists
	}
	// Each window has its own normalisation: lay them out as rows, by
	// Extract's arithmetic, and sweep those — both bounds the row.
	l := len(c.q)
	c.block = slices.Grow(c.block[:0], len(starts)*l)[:len(starts)*l]
	for j, p := range starts {
		c.ext.Extract(int(p), l, c.block[j*l:])
	}
	kernel.SweepAbandonFlat(c.block, c.block, l, c.q, limit, dists)
	return dists
}

// within appends to out the windows at starts that are twins of q at
// eps, in the order given, counting candidates and abandons into st.
func (c *candidates) within(starts []int32, eps float64, out []series.Match, st *Stats) []series.Match {
	had := len(out)
	if c.ext.Backing() != nil {
		// The paper's disk-resident set-up (tsbench): each window is one
		// read of the store, compared as it arrives.
		if c.ver == nil {
			c.ver = series.NewVerifier(c.ext, c.q, eps)
		}
		for _, p := range starts {
			if c.ver.Verify(int(p)) {
				out = append(out, series.Match{Start: int(p), Dist: -1})
			}
		}
	} else {
		for j, d := range c.sweep(starts, eps) {
			if d >= 0 {
				out = append(out, series.Match{Start: int(starts[j]), Dist: -1})
			}
		}
	}
	st.Candidates += len(starts)
	st.Abandons += len(starts) - (len(out) - had)
	return out
}

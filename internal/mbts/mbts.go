// Package mbts implements Minimum Bounding Time Series
// [Chatzigeorgakidis et al. 2017], the bounding structure at the heart of
// the TS-Index: a pair of sequences (upper, lower) enclosing a set of
// equal-length time series pointwise (paper Definition 2). The
// sequence-to-MBTS distance (Eq. 2: every descent, Lemma 1 test and
// verification) and the expansion every insert makes run in the
// dispatched kernels of internal/mbts/kernel, over raw bound slices.
// What only an internal node's split asks — the MBTS-to-MBTS distance
// (Eq. 3), the band width and its growth under another MBTS — is here,
// one plain loop each, beside ExpandToMBTS.
package mbts

import (
	"fmt"

	"twinsearch/internal/mbts/kernel"
)

// MBTS bounds a set of sequences of equal length l: Lower[i] ≤ S[i] ≤
// Upper[i] for every enclosed S and every timestamp i. It is a view —
// two slice headers — so a row of a larger block of bounds is an MBTS
// too (Row), and methods write through to the block.
type MBTS struct {
	Upper []float64
	Lower []float64
}

// New returns an MBTS of length l in one allocation. Its bounds are
// zero: an MBTS is seeded from a first sequence via SetTo, FromSequence
// or Enclose, so New pre-allocates only.
func New(l int) MBTS {
	buf := make([]float64, 2*l)
	return MBTS{Upper: buf[:l:l], Lower: buf[l:]}
}

// FromSequence returns the tightest MBTS around a single sequence: both
// bounds equal the sequence.
func FromSequence(s []float64) MBTS {
	b := New(len(s))
	b.SetTo(s)
	return b
}

// Enclose returns the tightest MBTS around a non-empty set of sequences
// (Definition 2 / Eq. 1).
func Enclose(set ...[]float64) (MBTS, error) {
	if len(set) == 0 {
		return MBTS{}, fmt.Errorf("mbts: Enclose needs at least one sequence")
	}
	b := FromSequence(set[0])
	for _, s := range set[1:] {
		if len(s) != b.Len() {
			return MBTS{}, fmt.Errorf("mbts: mixed lengths %d and %d", b.Len(), len(s))
		}
		b.ExpandToSequence(s)
	}
	return b, nil
}

// Len returns the number of timestamps the MBTS spans.
func (b MBTS) Len() int { return len(b.Upper) }

// Row is the i-th l-length row of a block of bounds laid out back to
// back: [i*l, (i+1)*l) of Upper and of Lower.
func (b MBTS) Row(i, l int) MBTS {
	return MBTS{Upper: b.Upper[i*l : (i+1)*l], Lower: b.Lower[i*l : (i+1)*l]}
}

// CopyFrom overwrites b's bounds with src's.
func (b MBTS) CopyFrom(src MBTS) {
	copy(b.Upper, src.Upper)
	copy(b.Lower, src.Lower)
}

// SetTo resets the MBTS to bound exactly the single sequence s.
func (b MBTS) SetTo(s []float64) {
	copy(b.Upper, s)
	copy(b.Lower, s)
}

// ExpandToSequence grows the bounds just enough to enclose s, through
// the dispatched kernel (kernel.Expand).
func (b MBTS) ExpandToSequence(s []float64) {
	kernel.Expand(b.Upper, b.Lower, s)
}

// ExpandToMBTS grows the bounds just enough to enclose another MBTS.
func (b MBTS) ExpandToMBTS(o MBTS) {
	for i := range b.Upper {
		if o.Upper[i] > b.Upper[i] {
			b.Upper[i] = o.Upper[i]
		}
		if o.Lower[i] < b.Lower[i] {
			b.Lower[i] = o.Lower[i]
		}
	}
}

// The split heuristics: measures between two MBTS that only an internal
// node's split evaluates (§5.2), one plain loop each rather than a
// dispatched kernel. TestSplitHeuristics pins how they treat a NaN
// bound, ±Inf, an inverted band and ±0.

// DistMBTS is the paper's Eq. 3: the separation between two MBTS — the
// largest pointwise gap between the bands, 0 when they overlap at every
// timestamp. A lane whose comparisons a NaN leaves false contributes 0,
// and where both gaps fire (inverted bands) "b above o" wins.
func (b MBTS) DistMBTS(o MBTS) float64 {
	var max float64
	for i := range b.Upper {
		var d float64
		if b.Lower[i] > o.Upper[i] {
			d = b.Lower[i] - o.Upper[i]
		} else if b.Upper[i] < o.Lower[i] {
			d = o.Lower[i] - b.Upper[i]
		}
		if d > max {
			max = d
		}
	}
	return max
}

// Width returns the total band width Σ_i (Upper[i] − Lower[i]), the
// measure TS-Index minimizes when assigning entries during node splits
// (the MBTS analogue of an R*-tree's enlargement; README, "Index
// construction").
func (b MBTS) Width() float64 {
	var sum float64
	for i := range b.Upper {
		sum += b.Upper[i] - b.Lower[i]
	}
	return sum
}

// WidthIncreaseMBTS returns how much Width would grow if o were
// enclosed, without modifying b.
func (b MBTS) WidthIncreaseMBTS(o MBTS) float64 {
	var inc float64
	for i := range b.Upper {
		if o.Upper[i] > b.Upper[i] {
			inc += o.Upper[i] - b.Upper[i]
		}
		if o.Lower[i] < b.Lower[i] {
			inc += b.Lower[i] - o.Lower[i]
		}
	}
	return inc
}

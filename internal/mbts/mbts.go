// Package mbts implements Minimum Bounding Time Series
// [Chatzigeorgakidis et al. 2017], the bounding structure at the heart of
// the TS-Index: a pair of sequences (upper, lower) enclosing a set of
// equal-length time series pointwise (paper Definition 2), together with
// the two Chebyshev-flavoured distances the index needs —
// sequence-to-MBTS (Eq. 2, used for descent and for the Lemma 1 pruning
// test) and MBTS-to-MBTS (Eq. 3, used when splitting internal nodes).
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

// ContainsSequence reports whether s lies within the bounds at every
// timestamp.
func (b MBTS) ContainsSequence(s []float64) bool {
	for i, v := range s {
		if v > b.Upper[i] || v < b.Lower[i] {
			return false
		}
	}
	return true
}

// ContainsMBTS reports whether o lies entirely within b.
func (b MBTS) ContainsMBTS(o MBTS) bool {
	for i := range b.Upper {
		if o.Upper[i] > b.Upper[i] || o.Lower[i] < b.Lower[i] {
			return false
		}
	}
	return true
}

// DistFlat is Eq. 2 over raw float64 bound slices, without an MBTS
// wrapper — the full-width form (the frozen arena's half-width rows go
// through kernel.DistFlat32). upper and lower must have at least len(s)
// entries. The computation is dispatched through
// internal/mbts/kernel (branch-free portable or AVX2, selected at init;
// see that package for the exact NaN/result contract — all forms are
// bit-identical).
func DistFlat(upper, lower, s []float64) float64 {
	return kernel.DistFlat(upper, lower, s)
}

// DistMBTS is the paper's Eq. 3: the separation between two MBTS — the
// largest pointwise gap between the bands, 0 when they overlap at every
// timestamp.
func (b MBTS) DistMBTS(o MBTS) float64 {
	return kernel.DistMBTS(b.Upper, b.Lower, o.Upper, o.Lower)
}

// Width returns the total band width Σ_i (Upper[i] − Lower[i]), the
// measure TS-Index minimizes when assigning entries during node splits
// (the MBTS analogue of an R*-tree's enlargement; README, "Index
// construction").
func (b MBTS) Width() float64 {
	return kernel.Width(b.Upper, b.Lower)
}

// WidthIncreaseMBTS returns how much Width would grow if o were
// enclosed, without modifying b.
func (b MBTS) WidthIncreaseMBTS(o MBTS) float64 {
	return kernel.WidthIncreaseMBTS(b.Upper, b.Lower, o.Upper, o.Lower)
}

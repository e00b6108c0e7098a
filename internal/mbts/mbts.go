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
	"unsafe"

	"twinsearch/internal/mbts/kernel"
)

// MBTS bounds a set of sequences of equal length l: Lower[i] ≤ S[i] ≤
// Upper[i] for every enclosed S and every timestamp i.
type MBTS struct {
	Upper []float64
	Lower []float64
}

// New returns an empty MBTS of length l: Upper at -∞-like sentinel is
// avoided by construction — an MBTS is always seeded from a first
// sequence via FromSequence or Enclose, so New pre-allocates only.
func New(l int) *MBTS {
	return &MBTS{Upper: make([]float64, l), Lower: make([]float64, l)}
}

// FromSequence returns the tightest MBTS around a single sequence: both
// bounds equal the sequence.
func FromSequence(s []float64) *MBTS {
	b := New(len(s))
	copy(b.Upper, s)
	copy(b.Lower, s)
	return b
}

// Enclose returns the tightest MBTS around a non-empty set of sequences
// (Definition 2 / Eq. 1).
func Enclose(set ...[]float64) (*MBTS, error) {
	if len(set) == 0 {
		return nil, fmt.Errorf("mbts: Enclose needs at least one sequence")
	}
	b := FromSequence(set[0])
	for _, s := range set[1:] {
		if len(s) != b.Len() {
			return nil, fmt.Errorf("mbts: mixed lengths %d and %d", b.Len(), len(s))
		}
		b.ExpandToSequence(s)
	}
	return b, nil
}

// Len returns the number of timestamps the MBTS spans.
func (b *MBTS) Len() int { return len(b.Upper) }

// Clone deep-copies the MBTS.
func (b *MBTS) Clone() *MBTS {
	c := New(b.Len())
	copy(c.Upper, b.Upper)
	copy(c.Lower, b.Lower)
	return c
}

// CopyFrom overwrites b's bounds with src's.
func (b *MBTS) CopyFrom(src *MBTS) {
	copy(b.Upper, src.Upper)
	copy(b.Lower, src.Lower)
}

// SetTo resets the MBTS to bound exactly the single sequence s.
func (b *MBTS) SetTo(s []float64) {
	copy(b.Upper, s)
	copy(b.Lower, s)
}

// ExpandToSequence grows the bounds just enough to enclose s, through
// the dispatched kernel (kernel.Expand).
func (b *MBTS) ExpandToSequence(s []float64) {
	kernel.Expand(b.Upper, b.Lower, s)
}

// ExpandToMBTS grows the bounds just enough to enclose another MBTS.
func (b *MBTS) ExpandToMBTS(o *MBTS) {
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
func (b *MBTS) ContainsSequence(s []float64) bool {
	for i, v := range s {
		if v > b.Upper[i] || v < b.Lower[i] {
			return false
		}
	}
	return true
}

// ContainsMBTS reports whether o lies entirely within b.
func (b *MBTS) ContainsMBTS(o *MBTS) bool {
	for i := range b.Upper {
		if o.Upper[i] > b.Upper[i] || o.Lower[i] < b.Lower[i] {
			return false
		}
	}
	return true
}

// DistSequenceAbandon is the paper's Eq. 2 with early abandoning: the
// Chebyshev-style distance from a sequence to the MBTS — the largest
// pointwise excursion of s outside the band, 0 when s is enclosed — as
// (dist, true) when it is ≤ limit, and (0, false) as soon as the
// running maximum exceeds limit. Construction abandons against the best
// child distance so far (chooseChild).
func (b *MBTS) DistSequenceAbandon(s []float64, limit float64) (float64, bool) {
	return DistAbandonFlat(b.Upper, b.Lower, s, limit)
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

// DistAbandonFlat is DistSequenceAbandon over raw bound slices (see
// DistFlat): it returns (0, false) as soon as the running maximum
// exceeds limit, and (dist, true) when the distance is ≤ limit.
func DistAbandonFlat(upper, lower, s []float64, limit float64) (float64, bool) {
	return kernel.DistAbandonFlat(upper, lower, s, limit)
}

// DistMBTS is the paper's Eq. 3: the separation between two MBTS — the
// largest pointwise gap between the bands, 0 when they overlap at every
// timestamp.
func (b *MBTS) DistMBTS(o *MBTS) float64 {
	return kernel.DistMBTS(b.Upper, b.Lower, o.Upper, o.Lower)
}

// Width returns the total band width Σ_i (Upper[i] − Lower[i]), the
// measure TS-Index minimizes when assigning entries during node splits
// (DESIGN.md §5: the R*-tree "enlargement" analogue for MBTS).
func (b *MBTS) Width() float64 {
	return kernel.Width(b.Upper, b.Lower)
}

// WidthIncreaseSequence returns how much Width would grow if s were
// enclosed, without modifying b.
func (b *MBTS) WidthIncreaseSequence(s []float64) float64 {
	return kernel.WidthIncreaseSequence(b.Upper, b.Lower, s)
}

// WidthIncreaseMBTS returns how much Width would grow if o were
// enclosed, without modifying b.
func (b *MBTS) WidthIncreaseMBTS(o *MBTS) float64 {
	return kernel.WidthIncreaseMBTS(b.Upper, b.Lower, o.Upper, o.Lower)
}

// Sizes of the MBTS footprint components, derived from the compiler
// rather than hardcoded so the accounting tracks the real layout (a
// slice header is three words, not two — the hardcoded "16" this
// replaced undercounted every header by a word).
const (
	structBytes  = int(unsafe.Sizeof(MBTS{}))     // the two slice headers
	elementBytes = int(unsafe.Sizeof(float64(0))) // one bound sample
)

// MemoryBytes reports the heap bytes held by the MBTS bounds, for the
// index memory-footprint accounting in Fig. 8a: the struct (its two
// slice headers) plus the backing arrays.
func (b *MBTS) MemoryBytes() int {
	return structBytes + elementBytes*(len(b.Upper)+len(b.Lower))
}

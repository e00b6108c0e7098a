package series

import "fmt"

// NormMode selects how values are normalized before indexing and search,
// mirroring the three settings in the paper (§3.1):
//
//   - NormNone: raw values (paper's "non-normalized" experiments, Fig. 7).
//   - NormGlobal: the entire series is z-normalized once (the paper's
//     default, Figs. 4 and 5).
//   - NormPerSubsequence: every window is z-normalized independently
//     (Fig. 6). KV-Index is inapplicable in this mode because every
//     window mean is zero.
type NormMode int

const (
	NormNone NormMode = iota
	NormGlobal
	NormPerSubsequence
)

// String implements fmt.Stringer.
func (m NormMode) String() string {
	switch m {
	case NormNone:
		return "raw"
	case NormGlobal:
		return "z-norm(series)"
	case NormPerSubsequence:
		return "z-norm(subsequence)"
	default:
		return fmt.Sprintf("NormMode(%d)", int(m))
	}
}

// Extractor yields (possibly normalized) subsequences of a series. All
// indices build from and verify against the same extractor, so the choice
// of normalization is made exactly once, at construction.
//
// For NormGlobal the series is transformed up front, making extraction a
// plain slice view; for NormPerSubsequence each window is normalized on
// demand using O(1) rolling statistics.
type Extractor struct {
	data    []float64
	mode    NormMode
	rolling *Rolling // non-nil only for NormPerSubsequence

	// Global z-normalization parameters (NormGlobal only), retained so
	// raw-space queries can be mapped into the extractor's value space.
	gMean, gStd float64

	// backing, when non-nil, redirects verification-time window reads
	// through it (see AttachStore). It must serve the RAW series.
	backing WindowReader
}

// WindowReader is the random-access read interface verification uses in
// disk-backed mode; store.Disk implements it.
type WindowReader interface {
	// ReadAt fills dst with len(dst) raw series values starting at p.
	ReadAt(dst []float64, p int) error
}

// AttachStore switches the extractor into the paper's evaluation setup
// (§6.1): the index structure stays in memory, but every candidate
// window verified at query time is fetched from r with a random-access
// read of the ORIGINAL (raw, un-normalized) series; the extractor
// re-applies its normalization to each fetched window. Index
// construction and Extract are unaffected — builds run from the
// in-memory pass exactly as before.
func (e *Extractor) AttachStore(r WindowReader) { e.backing = r }

// NewExtractor prepares an extractor over t with the given mode. The
// input slice is never modified; NormGlobal takes a normalized copy.
func NewExtractor(t []float64, mode NormMode) *Extractor {
	e := &Extractor{mode: mode, data: t}
	switch mode {
	case NormGlobal:
		e.gMean, e.gStd = MeanStd(t)
		if e.gStd < zeroStd {
			e.gStd = 0
		}
		e.data = make([]float64, len(t))
		scaleInto(e.data, t, e.gMean, e.gStd)
	case NormPerSubsequence:
		e.rolling = NewRolling(t)
	}
	return e
}

// Len returns the length of the underlying series.
func (e *Extractor) Len() int { return len(e.data) }

// Mode returns the extractor's normalization mode.
func (e *Extractor) Mode() NormMode { return e.mode }

// Data returns the series as seen by the extractor before any
// per-subsequence normalization (raw for NormNone/NormPerSubsequence,
// globally normalized for NormGlobal). Callers must not modify it.
func (e *Extractor) Data() []float64 { return e.data }

// Extract returns the subsequence at [p, p+l) under the extractor's
// normalization. For NormPerSubsequence the result is written into buf
// (allocated when too small); otherwise a zero-copy view is returned.
// The window must be in bounds.
func (e *Extractor) Extract(p, l int, buf []float64) []float64 {
	if p < 0 || l <= 0 || p+l > len(e.data) {
		panic(fmt.Sprintf("series: Extract out of bounds: start=%d len=%d series=%d", p, l, len(e.data)))
	}
	w := e.data[p : p+l]
	if e.mode != NormPerSubsequence {
		return w
	}
	if cap(buf) < l {
		buf = make([]float64, l)
	}
	buf = buf[:l]
	mean, std := e.rolling.MeanStd(p, l)
	scaleInto(buf, w, mean, std)
	return buf
}

// ExtractCopy returns a freshly allocated copy of the window at [p, p+l)
// under the extractor's normalization.
func (e *Extractor) ExtractCopy(p, l int) []float64 {
	out := make([]float64, l)
	e.extractTo(p, out)
	return out
}

// extractTo writes the in-memory window at p, under the extractor's
// normalization, into dst.
func (e *Extractor) extractTo(p int, dst []float64) {
	if w := e.Extract(p, len(dst), dst); &w[0] != &dst[0] {
		copy(dst, w)
	}
}

// fetch writes the window at p, under the extractor's normalization,
// into row: from memory, or — with a store attached — by one ReadAt of
// the raw series, re-normalised by the arithmetic that built the
// in-memory values, so both give the same bits.
func (e *Extractor) fetch(p int, row []float64) {
	if e.backing == nil {
		e.extractTo(p, row)
		return
	}
	if err := e.backing.ReadAt(row, p); err != nil {
		panic("series: disk-backed verification read failed: " + err.Error())
	}
	mean, std := e.gMean, e.gStd
	switch e.mode {
	case NormNone:
		return
	case NormPerSubsequence:
		// Rolling prefix sums stay in memory (they are part of the
		// index-side state); only the values come from the store.
		mean, std = e.rolling.MeanStd(p, len(row))
	}
	scaleInto(row, row, mean, std)
}

// TransformQuery maps a query expressed in the raw value space of the
// original series into the extractor's value space, so that Chebyshev
// distances against extracted windows mean what the caller expects:
//
//   - NormNone: identity (copied).
//   - NormGlobal: the same affine transform applied to the series,
//     (v − mean)/σ with the global parameters.
//   - NormPerSubsequence: z-normalization of the query itself.
//
// A query sampled from the series at position p transforms to exactly
// ExtractCopy(p, len(q)).
func (e *Extractor) TransformQuery(q []float64) []float64 {
	out := make([]float64, len(q))
	switch e.mode {
	case NormGlobal:
		scaleInto(out, q, e.gMean, e.gStd) // a constant series maps queries to zeros
	case NormPerSubsequence:
		ZNormalizeTo(out, q)
	default:
		copy(out, q)
	}
	return out
}

// GlobalParams returns the global normalization mean and σ (NormGlobal
// extractors only; zeros otherwise).
func (e *Extractor) GlobalParams() (mean, std float64) { return e.gMean, e.gStd }

// Append extends the series with new trailing values, enabling
// streaming ingestion:
//
//   - NormNone: values are stored as-is.
//   - NormGlobal: values are transformed with the FROZEN original
//     (mean, σ) — the standard streaming practice; the normalization
//     basis never shifts under already-indexed windows. A constant
//     original series (σ=0) maps appended values to 0 like the rest.
//   - NormPerSubsequence: raw values are stored and the rolling prefix
//     sums are extended, so new windows normalize exactly like old ones.
//
// Existing windows, queries and attached stores are unaffected; only
// positions gained by the growth become addressable.
func (e *Extractor) Append(vs ...float64) {
	n := len(e.data)
	e.data = append(e.data, vs...)
	switch e.mode {
	case NormGlobal:
		scaleInto(e.data[n:], e.data[n:], e.gMean, e.gStd)
	case NormPerSubsequence:
		e.rolling.Append(vs...)
	}
}

package main

import (
	"math"
	"sort"
)

// Noise discipline: every reported timing is a median (or a percentile)
// with its sample count and a MAD-derived noise floor, and a number
// derived as a difference is only printed when it clears that floor.

// metric is one measured value as the result file records it. The
// contract's final stdout line carries only Value and Unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	// Noise is the MAD-derived half-width within which Value cannot be
	// told from a repeat of the same run, in Unit.
	Noise float64 `json:"noise,omitempty"`
	// Unresolved marks a derived difference smaller than its noise
	// floor: Value is then 0 and Raw holds the difference as measured.
	Unresolved bool    `json:"unresolved,omitempty"`
	Raw        float64 `json:"raw,omitempty"`
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile reads the p-quantile (0..1) off an ascending slice.
func quantile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return s[int(p*float64(len(s)-1))]
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// mad is the median absolute deviation around med.
func mad(xs []float64, med float64) float64 {
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return median(dev)
}

// medianFloor returns the median of xs and the noise floor of that
// median: two standard errors, with sigma estimated as 1.4826*MAD and
// the median's standard error as 1.2533*sigma/sqrt(n).
func medianFloor(xs []float64) (med, floor float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	med = median(xs)
	return med, 2 * 1.2533 * 1.4826 * mad(xs, med) / math.Sqrt(float64(len(xs)))
}

// batches is how many time-ordered slices a sample is cut into to
// estimate the noise of a statistic that has no closed-form error (a
// percentile, a rate).
const batches = 10

// batchNoise estimates the noise floor of stat over the time-ordered
// sample xs: stat is evaluated on each of `batches` consecutive slices
// and the spread of those estimates, scaled to the whole sample, is the
// floor (two standard errors, sigma from MAD).
func batchNoise(xs []float64, stat func(ascending []float64) float64) float64 {
	if len(xs) < 2*batches {
		return 0
	}
	est := make([]float64, batches)
	for b := range est {
		est[b] = stat(sorted(xs[b*len(xs)/batches : (b+1)*len(xs)/batches]))
	}
	return 2 * 1.4826 * mad(est, median(est)) / math.Sqrt(batches)
}

// timing summarises a latency sample (any unit) as its p-quantile with
// sample count and batch noise.
func timing(xs []float64, p float64, unit string) metric {
	return metric{Value: quantile(sorted(xs), p), Unit: unit, N: len(xs),
		Noise: batchNoise(xs, func(s []float64) float64 { return quantile(s, p) })}
}

// med summarises a sample as its median with the median's noise floor.
func med(xs []float64, unit string) metric {
	m, floor := medianFloor(xs)
	return metric{Value: m, Unit: unit, N: len(xs), Noise: floor}
}

// pairedDiff is the noise-disciplined difference a-b of two samples
// taken over the same items (index i of both is the same query), where a
// contains b's work and more — a rung and the rung below it, a traced
// call and the untraced one — so the true difference cannot be negative.
// It is the median of the per-item differences, reported only when it is
// positive and clears the differences' own noise floor. Items missing on
// either side (NaN) are skipped. An unresolved difference reports 0 with
// the raw value alongside, never a sign the measurement cannot support.
func pairedDiff(a, b []float64, unit string) metric {
	var d []float64
	for i := range a {
		if i < len(b) && !math.IsNaN(a[i]) && !math.IsNaN(b[i]) {
			d = append(d, a[i]-b[i])
		}
	}
	if len(d) == 0 {
		return metric{Unit: unit}
	}
	m, floor := medianFloor(d)
	if m <= floor {
		return metric{Unit: unit, N: len(d), Noise: floor, Unresolved: true, Raw: m}
	}
	return metric{Value: m, Unit: unit, N: len(d), Noise: floor}
}

// present drops the NaN placeholders of absent items.
func present(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			out = append(out, x)
		}
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Package harness regenerates the paper's evaluation (§6): it
// materializes the datasets and parameter grids of Tables 1–2, runs the
// query workloads of Figures 4–7 over all four methods, and the index
// size / build time comparison of Figure 8, printing rows in the shape
// the paper reports.
package harness

import (
	"twinsearch/internal/datasets"
)

// Table 1 — datasets and distance-threshold grids. Default values were
// bold in the paper's table; the bold markers do not survive text
// extraction, so the defaults below are the grid midpoints — an
// assumption of this reproduction, not a value the paper states.
var (
	InsectEpsNorm        = []float64{0.5, 0.75, 1, 1.25, 1.5}
	InsectEpsRaw         = []float64{50, 100, 150, 200, 250}
	InsectDefaultEpsNorm = 0.75
	InsectDefaultEpsRaw  = 100.0

	EEGEpsNorm        = []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	EEGEpsRaw         = []float64{20, 40, 60, 80, 100}
	EEGDefaultEpsNorm = 0.2
	EEGDefaultEpsRaw  = 40.0
)

// Table 2 — common parameters (defaults in bold in the paper: m = 10,
// ℓ = 100; no figure sweeps m, so only its default is kept).
var (
	DefaultM       = 10
	LengthGrid     = []int{50, 100, 150, 200, 250}
	DefaultL       = 100
	WorkloadSize   = 100 // queries per experiment (§6.1)
	WorkloadLength = 100 // sampled query length (§6.1)
)

// Dataset bundles a series with its Table 1 parameters.
type Dataset struct {
	Name string
	Data []float64

	EpsNorm, EpsRaw               []float64
	DefaultEpsNorm, DefaultEpsRaw float64
}

// Insect materializes the Insect Movement stand-in. scale ≤ 0 or ≥ 1
// yields the paper's full 64,436 points; smaller values truncate
// proportionally (the series is short enough that scaling is rarely
// needed).
func Insect(seed int64, scale float64) Dataset {
	n := scaledLen(datasets.InsectLen, scale)
	return Dataset{
		Name:           "Insect",
		Data:           datasets.InsectN(seed, n),
		EpsNorm:        InsectEpsNorm,
		EpsRaw:         InsectEpsRaw,
		DefaultEpsNorm: InsectDefaultEpsNorm,
		DefaultEpsRaw:  InsectDefaultEpsRaw,
	}
}

// EEG materializes the EEG stand-in; scale shrinks the paper's
// 1,801,999 points for laptop-scale sweeps (shape, not absolute
// numbers, is what the harness reproduces).
func EEG(seed int64, scale float64) Dataset {
	n := scaledLen(datasets.EEGLen, scale)
	return Dataset{
		Name:           "EEG",
		Data:           datasets.EEGN(seed, n),
		EpsNorm:        EEGEpsNorm,
		EpsRaw:         EEGEpsRaw,
		DefaultEpsNorm: EEGDefaultEpsNorm,
		DefaultEpsRaw:  EEGDefaultEpsRaw,
	}
}

func scaledLen(full int, scale float64) int {
	if scale <= 0 || scale >= 1 {
		return full
	}
	n := int(float64(full) * scale)
	if n < 1000 {
		n = 1000
	}
	return n
}

// RawEps rescales a raw-value threshold grid to a generated dataset.
// The paper's raw thresholds (e.g. 20–100 on EEG) are calibrated to the
// value range of its recordings; our synthetic stand-ins have their own
// scale, so raw grids are expressed as the normalized grid multiplied by
// the sample σ of the data — preserving the paper's selectivity rather
// than its absolute units.
func RawEps(normEps []float64, dataStd float64) []float64 {
	out := make([]float64, len(normEps))
	for i, e := range normEps {
		out[i] = e * dataStd
	}
	return out
}

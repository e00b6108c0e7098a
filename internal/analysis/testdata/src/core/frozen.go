// Package core is a fixture mirroring internal/core: Frozen's slice
// fields may be written only here (frozen.go) and in frozen_persist.go.
package core

// Frozen mimics the real flat arena layout.
type Frozen struct {
	first, count []int32
	positions    []int32
	upper, lower []float64
}

// freeze is the sanctioned build step: writes here are fine.
func freeze(n int) *Frozen {
	f := &Frozen{}
	f.first = make([]int32, n)
	f.count = make([]int32, n)
	f.positions = append(f.positions, 1, 2, 3)
	f.upper = make([]float64, n)
	f.lower = make([]float64, n)
	for i := range f.first {
		f.first[i] = int32(i)
	}
	copy(f.upper, f.lower)
	return f
}

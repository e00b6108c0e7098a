// Fixture: unsafe imported for its compile-time constants alone is
// allowed anywhere — Sizeof-based layout accounting forms no pointers.
// This file must produce no diagnostics.
package notarena

import "unsafe"

type header struct {
	upper []float64
	lower []float64
}

// HeaderBytes is the sanctioned pattern (core.Frozen.MemoryBytes): sizes come
// from the compiler, not hardcoded word counts.
func HeaderBytes(n int) int {
	return int(unsafe.Sizeof(header{})) + n*int(unsafe.Sizeof(float64(0)))
}

// Alignment constants are equally harmless.
const wordAlign = unsafe.Alignof(uintptr(0))
const upperOff = unsafe.Offsetof(header{}.upper)

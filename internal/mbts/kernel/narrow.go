package kernel

import "math"

// Outward narrowing: the storage half of the half-width contract (see
// the package comment). A float64 bound becomes the nearest float32 on
// its outer side — upper bounds never shrink, lower bounds never grow —
// so the narrowed box encloses the exact one and every Eq. 2 distance
// against it is at most the exact one.

// NarrowUp returns the smallest float32 that is ≥ x: float32(x), or its
// upward neighbour (math.Nextafter32 toward +Inf) when the conversion
// rounded down. A finite x above the float32 range becomes +Inf (still
// outward); NaN stays NaN.
func NarrowUp(x float64) float32 {
	f := float32(x)
	return stepIf(f, 1, float64(f) < x)
}

// NarrowDown returns the largest float32 that is ≤ x, the mirror image
// of NarrowUp.
func NarrowDown(x float64) float32 {
	f := float32(x)
	return stepIf(f, -1, float64(f) > x)
}

// stepIf moves f to the adjacent float32 in direction dir (+1 up, −1
// down) when wrong is set — math.Nextafter32 without its branches,
// because a build narrows every bound of the arena and whether a
// conversion rounded the wrong way is a coin toss. Floats order like
// their bit patterns taken as sign-magnitude integers, so a step away
// from zero adds one to the bits and a step toward zero subtracts one.
// A wrong-side f is never NaN, never the infinity in direction dir, and
// never the zero that dir would carry across the sign (float32(x) keeps
// x's sign), which are the cases Nextafter32 branches on.
func stepIf(f float32, dir int32, wrong bool) float32 {
	b := int32(math.Float32bits(f))
	step := (dir ^ (b >> 31)) - (b >> 31) // dir for f ≥ +0, −dir below
	if !wrong {
		step = 0
	}
	return math.Float32frombits(uint32(b + step))
}

//go:build race

package twinsearch

// raceEnabled reports whether the race detector is on. Under it
// sync.Pool drops a share of its Puts on purpose, so an allocation
// budget that a recycled buffer keeps is not a property of the code
// there; the budget tests measure it but assert it only without -race.
const raceEnabled = true

// Quickstart: build a TS-Index over a synthetic series, run a threshold
// twin query and a top-k query, and print what came back.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"twinsearch"
	"twinsearch/gen"
)

func main() {
	// A noisy periodic signal: every period is a near-twin of every
	// other, so even tight thresholds return a family of matches.
	data := gen.Sine(42, 20_000, 500, 2.0, 0.05)

	// Index all subsequences of length 200. The default configuration is
	// the paper's: TS-Index with node capacities 10/30, global
	// z-normalization.
	eng, err := twinsearch.Open(data, twinsearch.Options{L: 200})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d subsequences of length %d (TS-Index, %s)\n",
		eng.NumSubsequences(), eng.L(), eng.Norm())

	// Threshold query: all windows within Chebyshev distance 0.2 of the
	// window starting at 3000. Queries are expressed in raw values; the
	// engine normalizes consistently.
	query := data[3000:3200]
	matches, err := eng.Search(query, 0.2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d twins at eps=0.2 — the signal period is 500, so matches recur every period:\n", len(matches))
	for i, m := range matches {
		if i == 8 {
			fmt.Printf("  … %d more\n", len(matches)-8)
			break
		}
		fmt.Printf("  start=%d (offset %+d periods)\n", m.Start, (m.Start-3000)/500)
	}

	// Top-k query: the 5 nearest windows with exact distances.
	top, err := eng.SearchTopK(query, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n5 nearest windows (Chebyshev):")
	for _, m := range top {
		fmt.Printf("  start=%-6d dist=%.4f\n", m.Start, m.Dist)
	}
}

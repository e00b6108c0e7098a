package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

func readResult(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// comparable refuses pairs of runs whose numbers do not mean the same
// thing: another machine shape, toolchain, kernel dispatch, dataset size
// or load shape.
func comparable(a, b environment) error {
	type key struct {
		NProc, GOMAXPROCS, N, Clients int
		GoVersion, Kernel             string
		Seconds                       float64
		Smoke                         bool
	}
	ka := key{a.NProc, a.GOMAXPROCS, a.N, a.Clients, a.GoVersion, a.Kernel, a.Seconds, a.Smoke}
	kb := key{b.NProc, b.GOMAXPROCS, b.N, b.Clients, b.GoVersion, b.Kernel, b.Seconds, b.Smoke}
	if ka != kb {
		return fmt.Errorf("runs are not comparable: %+v vs %+v", ka, kb)
	}
	return nil
}

// verdict compares one end-to-end metric of run b against run a: how
// much worse b is as a share of a, against the metric's bound. When
// either run's own noise floor is wider than the bound the pair cannot
// certify anything and is unresolved.
func verdict(spec metricSpec, a, b metric) (rel float64, v string) {
	if a.Value == 0 {
		return 0, "unresolved"
	}
	rel = (b.Value - a.Value) / a.Value
	if spec.Better == higher {
		rel = -rel
	}
	switch {
	case math.Max(a.Noise, b.Noise)/a.Value > spec.Bound:
		return rel, "unresolved"
	case rel > spec.Bound:
		return rel, "worse"
	}
	return rel, "ok"
}

// compareFiles prints, per workload and end-to-end metric, b's relative
// difference from a and the verdict, and reports whether any is worse.
func compareFiles(pathA, pathB string) (worse bool, err error) {
	a, err := readResult(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return false, err
	}
	if err := comparable(a.Env, b.Env); err != nil {
		return false, err
	}
	fmt.Printf("a: %s (commit %s, seed %d)   b: %s (commit %s, seed %d)\n",
		pathA, a.Env.Commit, a.Env.Seed, pathB, b.Env.Commit, b.Env.Seed)
	for _, name := range sortedKeys(a.Workloads) {
		ra, rb := a.Workloads[name], b.Workloads[name]
		if rb == nil {
			continue
		}
		fmt.Printf("== %s   failed %d/%d -> %d/%d\n", name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
		if rb.Failed > ra.Failed {
			worse = true
		}
		for _, spec := range endToEnd {
			ma, mb := ra.EndToEnd[spec.Name], rb.EndToEnd[spec.Name]
			rel, v := verdict(spec, ma, mb)
			worse = worse || v == "worse"
			fmt.Printf("  %-24s %12.6g -> %12.6g %-12s %+7.2f%% worse (bound %.0f%%)  %s\n",
				spec.Name, ma.Value, mb.Value, spec.Unit, 100*rel, 100*spec.Bound, v)
		}
	}
	return worse, nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

package core

import (
	"fmt"
	"testing"

	"twinsearch/internal/datasets"
	"twinsearch/internal/mbts/kernel"
	"twinsearch/internal/series"
)

// leafCandidates returns, leaf by leaf, the window starts a range
// traversal at eps verifies for q: a leaf is reached iff its own bounds
// pass Lemma 1 (its ancestors' bounds enclose them) against q in stored
// lane order, and a reached leaf verifies its whole run of positions.
func leafCandidates(f *Frozen, q []float64, eps float64) (leaves [][]int32) {
	qs := storedQuery(nil, q, f.cfg.L)
	for n := f.leafStart; n < int32(len(f.first)); n++ {
		if _, ok := kernel.DistAbandonFlat32(f.boundsUpper(n), f.boundsLower(n), qs, eps); !ok {
			continue
		}
		lo, c := f.first[n], f.count[n]
		leaves = append(leaves, f.positions[lo:lo+c])
	}
	return leaves
}

// Verification per candidate, on the candidates the served traversals
// actually verify — the windows of every leaf a ε = 1.0 (`wide-sharded`)
// and a ε = 0.2 (`point`) traversal of bench/'s index (EEG, 200 000
// points, L = 100, global normalisation) reaches, near misses that
// survived Lemma 1, not random positions — by one kernel.SweepWindows
// call per leaf, in every kernel implementation.
func BenchmarkLeafVerify(b *testing.B) {
	const l = 100
	data := datasets.EEGN(1, 200000)
	ext := series.NewExtractor(data, series.NormGlobal)
	f, err := Build(ext, Config{L: l})
	if err != nil {
		b.Fatal(err)
	}
	var qs [][]float64
	for _, q := range datasets.Queries(data, 7, 16, l) {
		qs = append(qs, ext.TransformQuery(q))
	}
	for _, eps := range []float64{1.0, 0.2} {
		perQuery := make([][][]int32, len(qs))
		total := 0
		for i, q := range qs {
			perQuery[i] = leafCandidates(f, q, eps)
			n := 0
			for _, leaf := range perQuery[i] {
				n += len(leaf)
			}
			if _, st := f.SearchStats(q, eps); st.Candidates != n {
				b.Fatalf("eps=%g query %d: collected %d candidates, the traversal verifies %d", eps, i, n, st.Candidates)
			}
			total += n
		}
		run := func(name string, query func(i int) (twins int)) {
			b.Run(fmt.Sprintf("eps=%g/%s", eps, name), func(b *testing.B) {
				twins := 0
				for i := 0; i < b.N; i++ {
					for j := range qs {
						twins += query(j)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(total)), "ns/candidate")
				b.ReportMetric(float64(twins)/(float64(b.N)*float64(len(qs))), "twins/query")
			})
		}
		dists := make([]float64, 256)
		for _, im := range kernel.Impls() {
			run("sweep-"+im.Name, func(i int) (twins int) {
				for _, leaf := range perQuery[i] {
					im.SweepWindows(ext.Data(), leaf, qs[i], eps, dists)
					for _, d := range dists[:len(leaf)] {
						if d >= 0 {
							twins++
						}
					}
				}
				return twins
			})
		}
	}
}

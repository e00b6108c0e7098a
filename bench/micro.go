package main

import (
	"math/rand"
	"time"

	"twinsearch/internal/exec"
	"twinsearch/internal/mbts/kernel"
	"twinsearch/internal/qcache"
	"twinsearch/internal/series"
	"twinsearch/internal/sweepline"
)

// Micro measurements of the layers a query cannot be stopped inside from
// outside: the distance kernel, window verification, executor spawn and
// the result cache's own operations. Each is a fixed count of calls over
// inputs shaped like the workload's, timed in rounds so a median and a
// noise floor exist.

const microRounds = 21

// rounds times fn (which performs `per` operations) microRounds times and
// reports ns per operation.
func rounds(per int, fn func()) metric {
	ns := make([]float64, microRounds)
	for i := range ns {
		t0 := time.Now()
		fn()
		ns[i] = float64(time.Since(t0)) / float64(per)
	}
	return med(ns, "ns")
}

var sink float64 // keeps the kernels' results alive

// microKernel times kernel.DistFlat and DistAbandonFlat at L=100 over
// rotating bounds: bands of half-width eps around series windows, enough
// of them (1 MB) not to sit in L1.
func (r *run) microKernel(ext *series.Extractor) {
	const bands = 512
	rng := rand.New(rand.NewSource(r.cfg.seed))
	upper, lower := make([][]float64, bands), make([][]float64, bands)
	for b := range upper {
		w := ext.ExtractCopy(rng.Intn(r.windows()), seqLen)
		upper[b], lower[b] = make([]float64, seqLen), make([]float64, seqLen)
		for j, v := range w {
			upper[b][j], lower[b][j] = v+r.w.eps, v-r.w.eps
		}
	}
	q := ext.TransformQuery(r.queries[0])
	calls := bands * r.cfg.microScale
	dist := rounds(calls*seqLen, func() {
		for c := 0; c < calls; c++ {
			sink += kernel.DistFlat(upper[c%bands], lower[c%bands], q)
		}
	})
	abandon := rounds(calls*seqLen, func() {
		for c := 0; c < calls; c++ {
			d, _ := kernel.DistAbandonFlat(upper[c%bands], lower[c%bands], q, r.w.eps)
			sink += d
		}
	})
	r.layer["kernel.dist_ns_per_lane"], r.layer["kernel.abandon_ns_per_lane"] = dist, abandon
}

// microSeries times building a verifier and verifying windows that are
// twins (the whole window is compared) and windows that are not (early
// abandon), at the workload's eps.
func (r *run) microSeries(ext *series.Extractor) {
	const queries = 8
	rng := rand.New(rand.NewSource(r.cfg.seed))
	var prep []float64
	var hitNs, missNs []float64
	for i := 0; i < queries; i++ {
		tq := ext.TransformQuery(r.queries[i])
		t0 := time.Now()
		ver := series.MakeVerifier(ext, tq, r.w.eps)
		prep = append(prep, usSince(t0))
		twins := series.MatchStarts(sweepline.New(ext).Search(tq, r.w.eps))
		others := make([]int, 256)
		for j := range others {
			others[j] = rng.Intn(r.windows())
		}
		for _, c := range []struct {
			pos []int
			dst *[]float64
		}{{twins, &hitNs}, {others, &missNs}} {
			reps := r.cfg.microScale*256/len(c.pos) + 1
			m := rounds(reps*len(c.pos), func() {
				for rep := 0; rep < reps; rep++ {
					for _, p := range c.pos {
						if ver.Verify(p) {
							sink++
						}
					}
				}
			})
			*c.dst = append(*c.dst, m.Value)
		}
	}
	r.layer["series.prepare_us"] = med(prep, "us")
	r.layer["series.verify_hit_ns"] = med(hitNs, "ns")
	r.layer["series.verify_miss_ns"] = med(missNs, "ns")
}

// microExec times spawning and joining a group of no-op units on an
// executor the size of the engine's.
func (r *run) microExec() {
	ex := exec.New(0)
	units := 64 * r.cfg.microScale
	r.layer["exec.spawn_ns_per_unit"] = rounds(units, func() {
		g := ex.NewGroup()
		for u := 0; u < units; u++ {
			g.Go(func(*exec.Ctx) {})
		}
		g.Wait()
	})
}

// microQCache times the result cache's own operations on answers the
// size of the workload's: building a key, a hit, a miss, a fill.
func (r *run) microQCache(resultsPerQuery int) {
	n := min(len(r.queries), 64*r.cfg.microScale)
	answer := qcache.Result{Matches: make([]series.Match, resultsPerQuery)}
	c := qcache.NewResult(32 << 20)
	keys := make([]string, n)
	r.layer["qcache.key_ns"] = rounds(n, func() {
		for i := range keys {
			keys[i] = qcache.ResultKey(qcache.PathSearch, 0, r.w.eps, 0, r.queries[i])
		}
	})
	r.layer["qcache.get_miss_ns"] = rounds(n, func() {
		for _, k := range keys {
			c.Get(k[1:])
		}
	})
	// Only the first round fills; the rest find the incumbent, which is
	// the racing-fill path. Report the first.
	t0 := time.Now()
	for _, k := range keys {
		c.Put(k, answer)
	}
	r.layer["qcache.put_ns"] = metric{Value: float64(time.Since(t0)) / float64(n), Unit: "ns", N: n}
	// A 32 MiB cache may have evicted the oldest of these; hits are read
	// off the newest, which it has not.
	recent := keys[max(0, n-16):]
	r.layer["qcache.get_hit_ns"] = rounds(len(recent), func() {
		for _, k := range recent {
			if _, ok := c.Get(k); ok {
				sink++
			}
		}
	})
}

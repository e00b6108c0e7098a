package harness

// FigureKernel — beyond the paper: the engine-side cost model. Two row
// groups come out of one run:
//
//   - "kernel": per-call latency of the Eq. 2 distance kernels for every
//     registered implementation (scalar oracle, branch-free portable,
//     AVX2 when the host supports it). Calls cycle through 64 distinct
//     node-bound sets with a fixed query — a descent evaluates the same
//     query against a different node on every call, so the rotation
//     keeps the branch predictor from memorizing one lane sequence
//     (replaying a single input flatters the branchy scalar by ~4x).
//     Row semantics: AvgQueryMs is mean milliseconds per kernel call,
//     AvgCandidates is lanes per call, AvgResults is throughput in
//     Mlanes/s.
//
//   - "kernel-batch": the batch-frontier traversal against per-query
//     traversals on a real index — B range queries issued one at a time
//     versus one SearchStatsBatch call. AvgQueryMs is per-query mean
//     milliseconds, AvgResults/AvgCandidates the usual workload stats.
//
// tsbench -figure kernel -json BENCH_kernel.json records the trajectory
// point the README references.

import (
	"fmt"
	"math/rand"
	"time"

	"twinsearch/internal/mbts/kernel"
	"twinsearch/internal/series"
)

var kernelSink float64

// kernelBenchData builds the rotation set: nodes bound pairs and one
// query, all N(0,1)-shaped like normalized series.
func kernelBenchData(seed int64, nodes, n int) (us, ls [][]float64, s []float64) {
	rng := rand.New(rand.NewSource(seed))
	s = make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64() * 1.5
	}
	us, ls = make([][]float64, nodes), make([][]float64, nodes)
	for k := range us {
		u, l := make([]float64, n), make([]float64, n)
		for i := range u {
			a, b := rng.NormFloat64(), rng.NormFloat64()
			if a < b {
				a, b = b, a
			}
			u[i], l[i] = a, b
		}
		us[k], ls[k] = u, l
	}
	return
}

// timeKernel measures mean ns per call of f over the rotation set,
// running for at least minDur after a warmup pass.
func timeKernel(f func(u, l, s []float64) float64, us, ls [][]float64, s []float64, minDur time.Duration) float64 {
	mask := len(us) - 1
	k := 0
	for i := 0; i < 2000; i++ { // warmup: fault pages, settle turbo
		kernelSink = f(us[k], ls[k], s)
		k = (k + 1) & mask
	}
	iters := 0
	start := time.Now()
	var elapsed time.Duration
	for elapsed < minDur {
		for i := 0; i < 1000; i++ {
			kernelSink = f(us[k], ls[k], s)
			k = (k + 1) & mask
		}
		iters += 1000
		elapsed = time.Since(start)
	}
	return float64(elapsed.Nanoseconds()) / float64(iters)
}

func (r *Runner) FigureKernel() []Row {
	const nodes = 64
	var rows []Row
	r.logf("Kernel experiment: active dispatch = %s", kernel.Active())
	for _, n := range []int{128, 1024} {
		us, ls, s := kernelBenchData(r.Seed, nodes, n)
		for _, im := range kernel.Impls() {
			ops := []struct {
				name string
				f    func(u, l, s []float64) float64
			}{
				{"DistFlat", im.DistFlat},
				{"DistAbandonFlat", func(u, l, s []float64) float64 {
					// A limit no excursion reaches: the descent's common
					// case, where the node survives and pays full length.
					m, _ := im.DistAbandonFlat(u, l, s, 1e30)
					return m
				}},
			}
			for _, op := range ops {
				ns := timeKernel(op.f, us, ls, s, 50*time.Millisecond)
				rows = append(rows, Row{
					Figure: "kernel", Dataset: "synthetic", Method: im.Name,
					Param:         fmt.Sprintf("%s/n=%d", op.name, n),
					AvgQueryMs:    ns / 1e6,
					AvgCandidates: float64(n),
					AvgResults:    float64(n) / ns * 1e3, // Mlanes/s
				})
				r.logf("  %-8s %-20s %8.0f ns/call  %7.0f Mlanes/s",
					im.Name, fmt.Sprintf("%s/n=%d", op.name, n), ns, float64(n)/ns*1e3)
			}
		}
	}
	rows = append(rows, r.figureKernelBatch()...)
	return rows
}

// figureKernelBatch times B per-query traversals against one batch
// traversal of the same B queries on the frozen Insect index.
func (r *Runner) figureKernelBatch() []Row {
	d := r.Insect()
	r.logf("Kernel batch experiment: %s", d.Name)
	ext := r.extractor(d, series.NormGlobal)
	b, err := buildMethod(TSIndex, ext, DefaultL, DefaultM)
	if err != nil {
		r.logf("  skipped (%v)", err)
		return nil
	}
	f := b.s.(tsAdapter).f
	eps := d.DefaultEpsNorm
	all := r.workload(d, ext, DefaultL)

	var rows []Row
	for _, batch := range []int{8, 16} {
		if batch > len(all) {
			r.logf("  B=%d: skipped (workload has %d queries)", batch, len(all))
			continue
		}
		qs := all[:batch]
		const rounds = 5
		var perDur, batchDur time.Duration
		var perRes, batchRes int
		for round := 0; round < rounds; round++ {
			start := time.Now()
			for _, q := range qs {
				ms, _ := f.SearchStats(q, eps)
				perRes += len(ms)
			}
			perDur += time.Since(start)

			start = time.Now()
			out, _ := f.SearchStatsBatch(qs, eps)
			batchDur += time.Since(start)
			for _, ms := range out {
				batchRes += len(ms)
			}
		}
		if perRes != batchRes {
			// The parity tests enforce this; a mismatch here means the
			// benchmark itself is broken, which must not go unnoticed.
			panic(fmt.Sprintf("harness: batch results diverged (%d vs %d)", batchRes, perRes))
		}
		n := float64(batch * rounds)
		mk := func(method string, dur time.Duration) Row {
			return Row{
				Figure: "kernel-batch", Dataset: d.Name, Method: method,
				Param:      fmt.Sprintf("B=%d", batch),
				AvgQueryMs: dur.Seconds() * 1000 / n,
				AvgResults: float64(perRes) / n,
				BuildMs:    b.buildTime.Seconds() * 1000, MemBytes: b.memBytes,
			}
		}
		rows = append(rows, mk("per-query", perDur), mk("batch", batchDur))
		r.logf("  B=%d: per-query %.3f ms/q, batch %.3f ms/q (%.2fx)",
			batch, perDur.Seconds()*1000/n, batchDur.Seconds()*1000/n,
			perDur.Seconds()/batchDur.Seconds())
	}
	return rows
}

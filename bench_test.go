package twinsearch_test

// Benchmarks mirroring the paper's evaluation, one family per figure
// (each section below names its figure; `go run ./cmd/tsbench -figure
// N` prints the figure's table and checks its shape against the
// paper's claims, harness.ShapeReport).
//
// These benches run on reduced dataset sizes with in-memory
// verification so `go test -bench=.` finishes in minutes; the
// full-shape reproduction with the paper's disk-resident setup is
// `go run ./cmd/tsbench` (which also prints the per-figure tables).

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"twinsearch/internal/arena"
	"twinsearch/internal/core"
	"twinsearch/internal/datasets"
	"twinsearch/internal/exec"
	"twinsearch/internal/harness"
	"twinsearch/internal/isax"
	"twinsearch/internal/kvindex"
	"twinsearch/internal/series"
	"twinsearch/internal/shard"
	"twinsearch/internal/sweepline"
)

// Bench-scale stand-ins: same generators as the harness, shorter runs.
const (
	benchInsectLen = 20000
	benchEEGLen    = 40000
	benchQueries   = 10
)

type benchSetup struct {
	name string
	data []float64
	eps  []float64 // the dataset's Table 1 normalized grid
	def  float64   // default threshold
}

var benchSetups = []benchSetup{
	{"Insect", datasets.InsectN(1, benchInsectLen), harness.InsectEpsNorm, harness.InsectDefaultEpsNorm},
	{"EEG", datasets.EEGN(2, benchEEGLen), harness.EEGEpsNorm, harness.EEGDefaultEpsNorm},
}

// engine caches keyed by (dataset, mode, method, l) so builds don't
// repeat across sub-benchmarks. Benchmarks run sequentially.
var (
	extCache = map[string]*series.Extractor{}
	tsCache  = map[string]*core.Frozen{}
	isxCache = map[string]*isax.Index{}
	kvCache  = map[string]*kvindex.Index{}
)

func benchExt(ds benchSetup, mode series.NormMode) *series.Extractor {
	key := fmt.Sprintf("%s/%d", ds.name, mode)
	if e, ok := extCache[key]; ok {
		return e
	}
	e := series.NewExtractor(ds.data, mode)
	extCache[key] = e
	return e
}

// benchTS is the TS-Index in the form that is searched: built by
// insertion, frozen.
func benchTS(b *testing.B, ds benchSetup, mode series.NormMode, l int) *core.Frozen {
	key := fmt.Sprintf("%s/%d/%d", ds.name, mode, l)
	if f, ok := tsCache[key]; ok {
		return f
	}
	ix, err := core.Build(benchExt(ds, mode), core.Config{L: l})
	if err != nil {
		b.Fatal(err)
	}
	tsCache[key] = ix.Freeze()
	return tsCache[key]
}

func benchISAX(b *testing.B, ds benchSetup, mode series.NormMode, l int) *isax.Index {
	key := fmt.Sprintf("%s/%d/%d", ds.name, mode, l)
	if ix, ok := isxCache[key]; ok {
		return ix
	}
	ix, err := isax.Build(benchExt(ds, mode), isax.Config{L: l, Segments: harness.DefaultM})
	if err != nil {
		b.Fatal(err)
	}
	isxCache[key] = ix
	return ix
}

func benchKV(b *testing.B, ds benchSetup, mode series.NormMode, l int) *kvindex.Index {
	key := fmt.Sprintf("%s/%d/%d", ds.name, mode, l)
	if ix, ok := kvCache[key]; ok {
		return ix
	}
	ix, err := kvindex.Build(benchExt(ds, mode), kvindex.Config{L: l})
	if err != nil {
		b.Fatal(err)
	}
	kvCache[key] = ix
	return ix
}

func benchWorkload(ds benchSetup, ext *series.Extractor, l int) [][]float64 {
	raw := datasets.Queries(ds.data, 7, benchQueries, l)
	out := make([][]float64, len(raw))
	for i, q := range raw {
		out[i] = ext.TransformQuery(q)
	}
	return out
}

// runQueries drives one searcher over the workload; the reported value
// is ns per query (each b.N iteration runs the whole workload).
func runQueries(b *testing.B, search func(q []float64, eps float64) int, qs [][]float64, eps float64) {
	b.Helper()
	var total int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			total += search(q, eps)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/float64(b.N)/float64(len(qs)), "results/query")
}

// --- Figure 4: query time vs ε, global z-normalization -----------------

func BenchmarkFig4QueryVsEps(b *testing.B) {
	for _, ds := range benchSetups {
		ext := benchExt(ds, series.NormGlobal)
		qs := benchWorkload(ds, ext, harness.DefaultL)
		for _, eps := range ds.eps {
			eps := eps
			b.Run(fmt.Sprintf("%s/Sweepline/eps=%g", ds.name, eps), func(b *testing.B) {
				sw := sweepline.New(ext)
				runQueries(b, func(q []float64, e float64) int { return len(sw.Search(q, e)) }, qs, eps)
			})
			b.Run(fmt.Sprintf("%s/KV-Index/eps=%g", ds.name, eps), func(b *testing.B) {
				ix := benchKV(b, ds, series.NormGlobal, harness.DefaultL)
				runQueries(b, func(q []float64, e float64) int { return len(ix.Search(q, e)) }, qs, eps)
			})
			b.Run(fmt.Sprintf("%s/iSAX/eps=%g", ds.name, eps), func(b *testing.B) {
				ix := benchISAX(b, ds, series.NormGlobal, harness.DefaultL)
				runQueries(b, func(q []float64, e float64) int { return len(ix.Search(q, e)) }, qs, eps)
			})
			b.Run(fmt.Sprintf("%s/TS-Index/eps=%g", ds.name, eps), func(b *testing.B) {
				ix := benchTS(b, ds, series.NormGlobal, harness.DefaultL)
				runQueries(b, func(q []float64, e float64) int { return len(ix.Search(q, e)) }, qs, eps)
			})
		}
	}
}

// --- Figure 5: query time vs subsequence length ℓ ----------------------

func BenchmarkFig5QueryVsLength(b *testing.B) {
	for _, ds := range benchSetups {
		ext := benchExt(ds, series.NormGlobal)
		for _, l := range harness.LengthGrid {
			l := l
			qs := benchWorkload(ds, ext, l)
			b.Run(fmt.Sprintf("%s/Sweepline/l=%d", ds.name, l), func(b *testing.B) {
				sw := sweepline.New(ext)
				runQueries(b, func(q []float64, e float64) int { return len(sw.Search(q, e)) }, qs, ds.def)
			})
			b.Run(fmt.Sprintf("%s/KV-Index/l=%d", ds.name, l), func(b *testing.B) {
				ix := benchKV(b, ds, series.NormGlobal, l)
				runQueries(b, func(q []float64, e float64) int { return len(ix.Search(q, e)) }, qs, ds.def)
			})
			b.Run(fmt.Sprintf("%s/iSAX/l=%d", ds.name, l), func(b *testing.B) {
				ix := benchISAX(b, ds, series.NormGlobal, l)
				runQueries(b, func(q []float64, e float64) int { return len(ix.Search(q, e)) }, qs, ds.def)
			})
			b.Run(fmt.Sprintf("%s/TS-Index/l=%d", ds.name, l), func(b *testing.B) {
				ix := benchTS(b, ds, series.NormGlobal, l)
				runQueries(b, func(q []float64, e float64) int { return len(ix.Search(q, e)) }, qs, ds.def)
			})
		}
	}
}

// --- Figure 6: per-subsequence normalization (KV-Index inapplicable) ---

func BenchmarkFig6PerSubsequenceNorm(b *testing.B) {
	for _, ds := range benchSetups {
		ext := benchExt(ds, series.NormPerSubsequence)
		qs := benchWorkload(ds, ext, harness.DefaultL)
		for _, eps := range ds.eps {
			eps := eps
			b.Run(fmt.Sprintf("%s/iSAX/eps=%g", ds.name, eps), func(b *testing.B) {
				ix := benchISAX(b, ds, series.NormPerSubsequence, harness.DefaultL)
				runQueries(b, func(q []float64, e float64) int { return len(ix.Search(q, e)) }, qs, eps)
			})
			b.Run(fmt.Sprintf("%s/TS-Index/eps=%g", ds.name, eps), func(b *testing.B) {
				ix := benchTS(b, ds, series.NormPerSubsequence, harness.DefaultL)
				runQueries(b, func(q []float64, e float64) int { return len(ix.Search(q, e)) }, qs, eps)
			})
		}
	}
}

// --- Figure 7: raw (non-normalized) data -------------------------------

func BenchmarkFig7RawData(b *testing.B) {
	for _, ds := range benchSetups {
		ext := benchExt(ds, series.NormNone)
		qs := benchWorkload(ds, ext, harness.DefaultL)
		_, std := series.MeanStd(ds.data)
		eps := ds.def * std // σ-scaled default (see harness.RawEps)
		b.Run(ds.name+"/Sweepline", func(b *testing.B) {
			sw := sweepline.New(ext)
			runQueries(b, func(q []float64, e float64) int { return len(sw.Search(q, e)) }, qs, eps)
		})
		b.Run(ds.name+"/KV-Index", func(b *testing.B) {
			ix := benchKV(b, ds, series.NormNone, harness.DefaultL)
			runQueries(b, func(q []float64, e float64) int { return len(ix.Search(q, e)) }, qs, eps)
		})
		b.Run(ds.name+"/iSAX", func(b *testing.B) {
			ix := benchISAX(b, ds, series.NormNone, harness.DefaultL)
			runQueries(b, func(q []float64, e float64) int { return len(ix.Search(q, e)) }, qs, eps)
		})
		b.Run(ds.name+"/TS-Index", func(b *testing.B) {
			ix := benchTS(b, ds, series.NormNone, harness.DefaultL)
			runQueries(b, func(q []float64, e float64) int { return len(ix.Search(q, e)) }, qs, eps)
		})
	}
}

// --- Figure 8a/8b: index memory footprint and construction time --------

func BenchmarkFig8aMemory(b *testing.B) {
	for _, ds := range benchSetups {
		ext := benchExt(ds, series.NormGlobal)
		b.Run(ds.name, func(b *testing.B) {
			// One representative iteration; the metric of interest is
			// bytes, not time.
			kv, err := kvindex.Build(ext, kvindex.Config{L: harness.DefaultL})
			if err != nil {
				b.Fatal(err)
			}
			isx, err := isax.Build(ext, isax.Config{L: harness.DefaultL, Segments: harness.DefaultM})
			if err != nil {
				b.Fatal(err)
			}
			ts, err := core.Build(ext, core.Config{L: harness.DefaultL})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(kv.MemoryBytes()+kv.AuxiliaryBytes()), "kv-bytes")
			b.ReportMetric(float64(isx.MemoryBytes()), "isax-bytes")
			tsBytes := ts.Freeze().MemoryBytes() // the arena is what stays resident
			b.ReportMetric(float64(tsBytes), "tsindex-bytes")
			b.ReportMetric(float64(tsBytes)/float64(isx.MemoryBytes()), "ts/isax-ratio")
		})
	}
}

func BenchmarkFig8bBuild(b *testing.B) {
	for _, ds := range benchSetups {
		ext := benchExt(ds, series.NormGlobal)
		b.Run(ds.name+"/KV-Index", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := kvindex.Build(ext, kvindex.Config{L: harness.DefaultL}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(ds.name+"/iSAX", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := isax.Build(ext, isax.Config{L: harness.DefaultL, Segments: harness.DefaultM}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(ds.name+"/TS-Index", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(ext, core.Config{L: harness.DefaultL}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Intro experiment (§1): Chebyshev twins vs Euclidean ε√ℓ range -----

func BenchmarkIntroChebyshevVsEuclidean(b *testing.B) {
	ds := benchSetups[1] // EEG
	ext := benchExt(ds, series.NormGlobal)
	qs := benchWorkload(ds, ext, harness.DefaultL)
	sw := sweepline.New(ext)
	b.Run("Chebyshev", func(b *testing.B) {
		runQueries(b, func(q []float64, e float64) int { return len(sw.Search(q, e)) }, qs, ds.def)
	})
	b.Run("Euclidean", func(b *testing.B) {
		edEps := series.EuclideanThresholdFor(ds.def, harness.DefaultL)
		runQueries(b, func(q []float64, e float64) int { return len(sw.SearchEuclidean(q, e)) }, qs, edEps)
	})
}

// --- Ablations: node capacity, KV-Index mean filter, iSAX segments ----

// Node capacity (µc, Mc): the paper fixes 10/30; this sweep shows the
// sensitivity of query latency to fan-out.
func BenchmarkAblationNodeCapacity(b *testing.B) {
	ds := benchSetups[0]
	ext := benchExt(ds, series.NormGlobal)
	qs := benchWorkload(ds, ext, harness.DefaultL)
	for _, caps := range []struct{ min, max int }{{5, 15}, {10, 30}, {20, 60}, {40, 120}} {
		caps := caps
		tree, err := core.Build(ext, core.Config{L: harness.DefaultL, MinCap: caps.min, MaxCap: caps.max})
		if err != nil {
			b.Fatal(err)
		}
		ix := tree.Freeze()
		b.Run(fmt.Sprintf("caps=%d-%d", caps.min, caps.max), func(b *testing.B) {
			runQueries(b, func(q []float64, e float64) int { return len(ix.Search(q, e)) }, qs, ds.def)
		})
	}
}

// KV-Index exact-mean prefilter on/off.
func BenchmarkAblationKVExactMeanFilter(b *testing.B) {
	ds := benchSetups[0]
	ext := benchExt(ds, series.NormGlobal)
	qs := benchWorkload(ds, ext, harness.DefaultL)
	for _, exact := range []bool{false, true} {
		exact := exact
		ix, err := kvindex.Build(ext, kvindex.Config{L: harness.DefaultL, ExactMeanFilter: exact})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("exactMean=%v", exact), func(b *testing.B) {
			runQueries(b, func(q []float64, e float64) int { return len(ix.Search(q, e)) }, qs, ds.def)
		})
	}
}

// iSAX segment count m (paper Table 2 grid).
func BenchmarkAblationISAXSegments(b *testing.B) {
	ds := benchSetups[0]
	ext := benchExt(ds, series.NormGlobal)
	qs := benchWorkload(ds, ext, harness.DefaultL)
	for _, m := range harness.SegmentGrid {
		m := m
		ix, err := isax.Build(ext, isax.Config{L: harness.DefaultL, Segments: m})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			runQueries(b, func(q []float64, e float64) int { return len(ix.Search(q, e)) }, qs, ds.def)
		})
	}
}

// Top-k extension: best-first search cost versus threshold search.
func BenchmarkExtensionTopK(b *testing.B) {
	ds := benchSetups[1]
	ext := benchExt(ds, series.NormGlobal)
	ix := benchTS(b, ds, series.NormGlobal, harness.DefaultL)
	qs := benchWorkload(ds, ext, harness.DefaultL)
	for _, k := range []int{1, 10, 100} {
		k := k
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, q := range qs {
					if got := ix.SearchTopK(q, k); len(got) != k {
						b.Fatalf("got %d results", len(got))
					}
				}
			}
		})
	}
}

// benchServed builds bench/'s own dataset — EEGN(1, 200 000), L = 100,
// NormGlobal, insertion-built, frozen — and 64 transformed queries:
// the in-process counterpart of BENCHMARK.json's `point` workload.
func benchServed(b *testing.B) (*core.Frozen, [][]float64) {
	if servedFrozen == nil {
		data, ext := servedSeries()
		ix, err := core.Build(ext, core.Config{L: harness.DefaultL})
		if err != nil {
			b.Fatal(err)
		}
		servedFrozen = ix.Freeze()
		for _, q := range datasets.Queries(data, 7, 64, harness.DefaultL) {
			servedQueries = append(servedQueries, ext.TransformQuery(q))
		}
	}
	return servedFrozen, servedQueries
}

var (
	servedFrozen  *core.Frozen
	servedQueries [][]float64
)

// servedSeries is bench/'s dataset and its extractor.
func servedSeries() ([]float64, *series.Extractor) {
	data := datasets.EEGN(1, 200000)
	return data, series.NewExtractor(data, series.NormGlobal)
}

// The served build shape: the counterpart of setup_s on `point` (one
// insertion build) and on `wide-sharded` (four per-shard insertion
// builds on the executor, each frozen).
func BenchmarkBuildInsert(b *testing.B) {
	_, ext := servedSeries()
	windows := series.NumSubsequences(ext.Len(), harness.DefaultL)
	run := func(name string, build func() error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := build(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(windows)*float64(b.N)/b.Elapsed().Seconds(), "windows/s")
		})
	}
	run("single", func() error {
		_, err := core.Build(ext, core.Config{L: harness.DefaultL})
		return err
	})
	run("shards=4", func() error {
		_, err := shard.Build(ext, shard.Config{Config: core.Config{L: harness.DefaultL}, Shards: 4})
		return err
	})
}

// The served top-k shape: the counterpart of topk_p50_ms on `point`,
// allocations included.
func BenchmarkFrozenTopK(b *testing.B) {
	fz, qs := benchServed(b)
	for _, k := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := fz.SearchTopK(qs[i%len(qs)], k); len(got) != k {
					b.Fatalf("got %d results", len(got))
				}
			}
		})
	}
}

// The served range-search shape: the counterpart of search_p50_ms on
// `point` (ε = 0.2, a handful of twins, traversal-bound) and on
// `wide-sharded` (ε = 1.0, thousands of matches, verification-bound).
func BenchmarkFrozenSearch(b *testing.B) {
	fz, qs := benchServed(b)
	for _, eps := range []float64{0.2, 1.0} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			b.ReportAllocs()
			var nodes, results int
			for i := 0; i < b.N; i++ {
				ms, st := fz.SearchStats(qs[i%len(qs)], eps)
				nodes += st.NodesVisited
				results += len(ms)
			}
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
			b.ReportMetric(float64(results)/float64(b.N), "results/op")
		})
	}
}

// Sharded TS-Index construction: the shard count is the parallelism of
// the build (one goroutine per shard), so on a multi-core machine the
// higher-shard sub-benchmarks should beat shards=1 roughly linearly
// until memory bandwidth intervenes; shards=1 is the unchanged
// single-index baseline for reference.
func BenchmarkShardedBuild(b *testing.B) {
	ds := benchSetups[1]
	ext := benchExt(ds, series.NormGlobal)
	for _, p := range []int{1, 2, 4, 0} {
		p := p
		name := fmt.Sprintf("shards=%d", p)
		if p == 0 {
			name = "shards=max"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := shard.Build(ext, shard.Config{
					Config: core.Config{L: harness.DefaultL}, Shards: p,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Sharded TS-Index search: each query fans out across the shards in
// parallel and merges. Per-query work is small, so the win over
// shards=1 shows mainly at loose thresholds (more candidates per
// shard); at tight thresholds the goroutine fan-out overhead is the
// visible cost.
func BenchmarkShardedSearch(b *testing.B) {
	ds := benchSetups[1]
	ext := benchExt(ds, series.NormGlobal)
	qs := benchWorkload(ds, ext, harness.DefaultL)
	for _, p := range []int{1, 2, 4, 0} {
		p := p
		ix, err := shard.Build(ext, shard.Config{
			Config: core.Config{L: harness.DefaultL}, Shards: p,
		})
		if err != nil {
			b.Fatal(err)
		}
		name := fmt.Sprintf("shards=%d", p)
		if p == 0 {
			name = "shards=max"
		}
		for _, eps := range []float64{ds.def, ds.eps[len(ds.eps)-1]} {
			eps := eps
			b.Run(fmt.Sprintf("%s/eps=%g", name, eps), func(b *testing.B) {
				runQueries(b, func(q []float64, e float64) int { return len(ix.Search(q, e)) }, qs, eps)
			})
		}
	}

	// The served shape: the series, length, partition and thresholds of
	// tsserve's sharded workload (EEG 200 k, 4 shards, ε = 1.0 and 0.2),
	// on one worker so fan-out and merge time is not hidden behind
	// parallel traversal. At ε = 1.0 a query has ~1 600 twins.
	data, sext := servedSeries()
	var sqs [][]float64
	for _, q := range datasets.Queries(data, 7, benchQueries, harness.DefaultL) {
		sqs = append(sqs, sext.TransformQuery(q))
	}
	ix, err := shard.Build(sext, shard.Config{
		Config: core.Config{L: harness.DefaultL}, Shards: 4, Executor: exec.New(1),
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, eps := range []float64{1.0, 0.2} {
		b.Run(fmt.Sprintf("served/shards=4/workers=1/eps=%g", eps), func(b *testing.B) {
			runQueries(b, func(q []float64, e float64) int { return len(ix.Search(q, e)) }, sqs, eps)
		})
	}
}

// Skewed shards: 4 partitions with the last holding ~90% of the
// windows. A query runs one whole-tree traversal per shard, so its
// latency on a skewed partition is bounded by its largest shard: the
// skewed rows with workers=max run at nearly that shard's cost however
// many cores are free, while the balanced rows divide the work. Only
// explicit Boundaries build such a partition; the default split is
// even. workers=1 rows run the same units one after another and serve
// as the no-parallelism baseline.
func BenchmarkSkewedShardSearch(b *testing.B) {
	ds := benchSetups[1]
	ext := benchExt(ds, series.NormGlobal)
	qs := benchWorkload(ds, ext, harness.DefaultL)
	count := series.NumSubsequences(len(ds.data), harness.DefaultL)
	parts := []struct {
		name   string
		bounds []int
	}{
		{"balanced", nil},
		{"skew90", harness.SkewedBoundaries(count, 4, 0.9)},
	}
	eps := ds.eps[len(ds.eps)-1] // loose threshold: per-query work is substantial
	for _, part := range parts {
		for _, workers := range []int{1, 0} {
			ix, err := shard.Build(ext, shard.Config{
				Config: core.Config{L: harness.DefaultL}, Shards: 4,
				Boundaries: part.bounds, Executor: exec.New(workers),
			})
			if err != nil {
				b.Fatal(err)
			}
			wname := fmt.Sprintf("workers=%d", workers)
			if workers == 0 {
				wname = "workers=max"
			}
			b.Run(fmt.Sprintf("%s/%s/range", part.name, wname), func(b *testing.B) {
				runQueries(b, func(q []float64, e float64) int { return len(ix.Search(q, e)) }, qs, eps)
			})
			b.Run(fmt.Sprintf("%s/%s/topk", part.name, wname), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, q := range qs {
						if got := ix.SearchTopK(q, 20); len(got) != 20 {
							b.Fatalf("got %d results", len(got))
						}
					}
				}
			})
		}
	}
}

// The frozen arena: what compiling the pointer tree costs, what a node
// weighs (8 structural bytes plus its two bound rows), and search and
// top-k over it at the paper's datasets.
func BenchmarkFrozenArena(b *testing.B) {
	for _, ds := range benchSetups {
		ext := benchExt(ds, series.NormGlobal)
		qs := benchWorkload(ds, ext, harness.DefaultL)
		fz := benchTS(b, ds, series.NormGlobal, harness.DefaultL)
		nodes := float64(fz.NodeCount())
		b.Run(ds.name+"/freeze", func(b *testing.B) {
			ix, err := core.Build(ext, core.Config{L: harness.DefaultL})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.Freeze()
			}
		})
		for _, eps := range []float64{ds.def, ds.eps[len(ds.eps)-1]} {
			eps := eps
			b.Run(fmt.Sprintf("%s/search/eps=%g", ds.name, eps), func(b *testing.B) {
				// After runQueries: its ResetTimer wipes user metrics.
				runQueries(b, func(q []float64, e float64) int { return len(fz.Search(q, e)) }, qs, eps)
				b.ReportMetric(float64(fz.MemoryBytes())/nodes, "bytes/node")
			})
		}
		b.Run(ds.name+"/topk", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, q := range qs {
					fz.SearchTopK(q, 20)
				}
			}
		})
	}
}

// Index persistence: serialize/reload a built TS-Index versus
// rebuilding it from the series.
func BenchmarkExtensionPersistence(b *testing.B) {
	ds := benchSetups[0]
	ext := benchExt(ds, series.NormGlobal)
	ix := benchTS(b, ds, series.NormGlobal, harness.DefaultL)
	var blob bytes.Buffer
	if _, err := ix.WriteTo(&blob); err != nil {
		b.Fatal(err)
	}
	b.Run("save", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			if _, err := ix.WriteTo(&buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// A copy open: the stream read into a heap arena, verified in full.
			if _, _, err := core.FrozenFromArena(arena.FromBytes(bytes.Clone(blob.Bytes())), 0, ext); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Build(ext, core.Config{L: harness.DefaultL}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(blob.Len()), "blob-bytes")
}

// Guard: the benches above assume the generators stay selective; this
// canary fails loudly if someone retunes a generator into a regime where
// the figures stop being meaningful (half the series matching).
func TestBenchSelectivityCanary(t *testing.T) {
	for _, ds := range benchSetups {
		ext := benchExt(ds, series.NormGlobal)
		sw := sweepline.New(ext)
		qs := benchWorkload(ds, ext, harness.DefaultL)
		total := 0
		for _, q := range qs {
			total += len(sw.Search(q, ds.def))
		}
		avg := float64(total) / float64(len(qs))
		windows := float64(series.NumSubsequences(len(ds.data), harness.DefaultL))
		if frac := avg / windows; frac > 0.10 {
			t.Fatalf("%s: default-eps selectivity %.1f%% exceeds 10%% — generator no longer index-friendly",
				ds.name, 100*frac)
		}
		if avg < 1 {
			t.Fatalf("%s: workload queries should at least match themselves", ds.name)
		}
		if math.IsNaN(avg) {
			t.Fatal("unexpected NaN")
		}
	}
}

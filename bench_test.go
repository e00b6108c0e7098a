package twinsearch_test

// Benchmarks of the index's operations: construction, range search,
// top-k and the shard layer's fan-out and merge. The ones over
// servedSeries are the in-process counterparts of the bench/ program's
// workloads (BENCHMARK.json).
//
// The paper's figures (4–8 and the introduction's experiment) live in
// `go run ./cmd/tsbench -figure N`, which writes the committed
// BENCH_fig*.json files; TestFigureRelations holds them to the paper's
// claims.

import (
	"fmt"
	"math"
	"testing"

	"twinsearch/internal/core"
	"twinsearch/internal/datasets"
	"twinsearch/internal/exec"
	"twinsearch/internal/harness"
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

// extCache holds each dataset's extractor so the benchmarks below do
// not rebuild it. Benchmarks run sequentially.
var extCache = map[string]*series.Extractor{}

// benchExt is the dataset's globally z-normalized extractor.
func benchExt(ds benchSetup) *series.Extractor {
	if e, ok := extCache[ds.name]; ok {
		return e
	}
	e := series.NewExtractor(ds.data, series.NormGlobal)
	extCache[ds.name] = e
	return e
}

// benchWorkload is the dataset's query workload at L = harness.DefaultL,
// transformed by ext.
func benchWorkload(ds benchSetup, ext *series.Extractor) [][]float64 {
	raw := datasets.Queries(ds.data, 7, benchQueries, harness.DefaultL)
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

// benchServed builds bench/'s own dataset — EEGN(1, 200 000), L = 100,
// NormGlobal, insertion-built, frozen — and 64 transformed queries:
// the in-process counterpart of BENCHMARK.json's `point` workload.
func benchServed(b *testing.B) (*core.Frozen, [][]float64) {
	if servedFrozen == nil {
		data, ext := servedSeries()
		f, err := core.Build(ext, core.Config{L: harness.DefaultL})
		if err != nil {
			b.Fatal(err)
		}
		servedFrozen = f
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

// The served top-k shape through the shard layer
// (shard.Index.SearchTopKCtx, unbounded): the counterpart of
// topk_p50_ms on `point` (one shard, the engine's single index) and on
// `wide-sharded` (four shards, on one worker so the traversals' work is
// not hidden behind parallel units). BenchmarkFrozenTopK is the bare
// traversal, without the shard layer.
func BenchmarkShardedTopK(b *testing.B) {
	data, ext := servedSeries()
	var qs [][]float64
	for _, q := range datasets.Queries(data, 7, 64, harness.DefaultL) {
		qs = append(qs, ext.TransformQuery(q))
	}
	for _, c := range []struct {
		name string
		cfg  shard.Config
	}{
		{"shards=1", shard.Config{Config: core.Config{L: harness.DefaultL}, Shards: 1}},
		{"shards=4/workers=1", shard.Config{Config: core.Config{L: harness.DefaultL}, Shards: 4, Executor: exec.New(1)}},
	} {
		ix, err := shard.Build(ext, c.cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := ix.SearchTopK(qs[i%len(qs)], 10); len(got) != 10 {
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
	ext := benchExt(ds)
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
	ext := benchExt(ds)
	qs := benchWorkload(ds, ext)
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
	ext := benchExt(ds)
	qs := benchWorkload(ds, ext)
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

// The frozen arena: what a node weighs (8 structural bytes plus its two
// bound rows), and search and top-k over it at the paper's datasets.
// Compiling the builder's tree into it is the last step of every build,
// timed with the insertions by BenchmarkBuildInsert.
func BenchmarkFrozenArena(b *testing.B) {
	for _, ds := range benchSetups {
		ext := benchExt(ds)
		qs := benchWorkload(ds, ext)
		fz, err := core.Build(ext, core.Config{L: harness.DefaultL})
		if err != nil {
			b.Fatal(err)
		}
		nodes := float64(fz.NodeCount())
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

// Guard: the benches above assume the generators stay selective; this
// canary fails loudly if someone retunes a generator into a regime where
// the figures stop being meaningful (half the series matching).
func TestBenchSelectivityCanary(t *testing.T) {
	for _, ds := range benchSetups {
		ext := benchExt(ds)
		sw := sweepline.New(ext)
		qs := benchWorkload(ds, ext)
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

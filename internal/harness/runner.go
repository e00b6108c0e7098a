package harness

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"time"

	"twinsearch/internal/arena"
	"twinsearch/internal/cluster"
	"twinsearch/internal/core"
	"twinsearch/internal/datasets"
	"twinsearch/internal/exec"
	"twinsearch/internal/series"
	"twinsearch/internal/shard"
	"twinsearch/internal/store"
	"twinsearch/internal/sweepline"
)

// Row is one measurement: a (figure, dataset, method, parameter) cell in
// the paper's evaluation.
type Row struct {
	Figure  string
	Dataset string
	Method  string
	Param   string

	AvgQueryMs    float64
	AvgResults    float64
	AvgCandidates float64
	BuildMs       float64
	MemBytes      int

	// Latency-distribution fields, populated by the figures that report
	// tails (failover): per-query p50/p99 and the count of queries that
	// returned an error.
	P50Ms  float64
	P99Ms  float64
	Errors int
}

// Runner executes the paper's experiments. The zero value is not usable;
// construct with NewRunner.
type Runner struct {
	// Scale shrinks the EEG dataset (1 = the paper's 1.8M points).
	Scale float64
	// Queries is the workload size per experiment (paper: 100).
	Queries int
	// Seed drives dataset generation and workload sampling.
	Seed int64
	// Log, when non-nil, receives progress lines.
	Log io.Writer
	// DiskVerify reproduces the paper's storage setup (§6.1): index
	// structures in memory, the raw series on disk, and every candidate
	// verification performing a random-access file read. Off, everything
	// stays in memory — faster, but per-candidate cost shrinks enough
	// that fixed traversal overheads distort the paper's shapes at
	// loose thresholds.
	DiskVerify bool
	// Workers sizes the query executor used by the sharded experiments
	// (FigureShard, FigureSkew); ≤ 0 selects one worker per CPU.
	Workers int

	insect, eeg *Dataset // lazily materialized
	diskStores  []*store.Disk
	diskFiles   []string
}

// NewRunner returns a runner with the paper's workload size and storage
// setup (disk-resident data).
func NewRunner(scale float64, seed int64) *Runner {
	return &Runner{Scale: scale, Queries: WorkloadSize, Seed: seed, DiskVerify: true}
}

// Close removes the temporary series files disk verification created.
func (r *Runner) Close() {
	for _, s := range r.diskStores {
		s.Close()
	}
	for _, f := range r.diskFiles {
		os.Remove(f)
	}
	r.diskStores, r.diskFiles = nil, nil
}

// attachDisk writes the dataset's raw series to a temporary file and
// routes the extractor's verification reads through it.
func (r *Runner) attachDisk(d *Dataset, ext *series.Extractor) error {
	f, err := os.CreateTemp("", "twinsearch-"+d.Name+"-*.f64")
	if err != nil {
		return err
	}
	path := f.Name()
	f.Close()
	if err := store.WriteFile(path, d.Data); err != nil {
		os.Remove(path)
		return err
	}
	disk, err := store.OpenDisk(path)
	if err != nil {
		os.Remove(path)
		return err
	}
	r.diskStores = append(r.diskStores, disk)
	r.diskFiles = append(r.diskFiles, path)
	ext.AttachStore(disk)
	return nil
}

// extractor builds the (dataset, mode) extractor, wiring in the disk
// store when DiskVerify is set.
func (r *Runner) extractor(d *Dataset, mode series.NormMode) *series.Extractor {
	ext := series.NewExtractor(d.Data, mode)
	if r.DiskVerify {
		if err := r.attachDisk(d, ext); err != nil {
			// Fall back to in-memory verification rather than failing
			// the whole experiment; the log records the substitution.
			r.logf("  disk verify unavailable (%v); falling back to memory", err)
		}
	}
	return ext
}

func (r *Runner) logf(format string, args ...interface{}) {
	if r.Log != nil {
		fmt.Fprintf(r.Log, format+"\n", args...)
	}
}

// Insect returns the runner's Insect dataset, materializing it once.
func (r *Runner) Insect() *Dataset {
	if r.insect == nil {
		d := Insect(r.Seed, 1)
		r.insect = &d
	}
	return r.insect
}

// EEG returns the runner's EEG dataset, materializing it once.
func (r *Runner) EEG() *Dataset {
	if r.eeg == nil {
		d := EEG(r.Seed+1, r.Scale)
		r.eeg = &d
	}
	return r.eeg
}

// Datasets returns both datasets in presentation order.
func (r *Runner) Datasets() []*Dataset { return []*Dataset{r.Insect(), r.EEG()} }

// workload samples the query set for a dataset and maps it into the
// extractor's value space.
func (r *Runner) workload(d *Dataset, ext *series.Extractor, l int) [][]float64 {
	raw := datasets.Queries(d.Data, r.Seed+7, r.Queries, l)
	out := make([][]float64, len(raw))
	for i, q := range raw {
		out[i] = ext.TransformQuery(q)
	}
	return out
}

// measure times the workload over one built method at one threshold.
func measure(b built, queries [][]float64, eps float64) (avgMs, avgResults, avgCands float64) {
	var results, cands int
	start := time.Now()
	for _, q := range queries {
		res, c := b.s.search(q, eps)
		results += res
		cands += c
	}
	elapsed := time.Since(start)
	n := float64(len(queries))
	return elapsed.Seconds() * 1000 / n, float64(results) / n, float64(cands) / n
}

// sweep runs every method over every threshold for one dataset/mode,
// building each index once and reusing it across the grid — the way the
// paper's per-figure sweeps are structured.
func (r *Runner) sweep(figure string, d *Dataset, mode series.NormMode, methods []MethodID, epsGrid []float64, l, segments int, paramName string) []Row {
	ext := r.extractor(d, mode)
	queries := r.workload(d, ext, l)
	var rows []Row
	for _, m := range methods {
		b, err := buildMethod(m, ext, l, segments)
		if err != nil {
			// KV-Index under per-subsequence normalization, etc.:
			// recorded as absent, exactly like the paper's Fig. 6.
			r.logf("  %s: skipped (%v)", m, err)
			continue
		}
		r.logf("  %s built in %v", m, b.buildTime.Round(time.Millisecond))
		for _, eps := range epsGrid {
			avgMs, avgRes, avgCands := measure(b, queries, eps)
			rows = append(rows, Row{
				Figure:  figure,
				Dataset: d.Name,
				Method:  m.String(),
				Param:   fmt.Sprintf("%s=%.4g", paramName, eps),

				AvgQueryMs:    avgMs,
				AvgResults:    avgRes,
				AvgCandidates: avgCands,
				BuildMs:       b.buildTime.Seconds() * 1000,
				MemBytes:      b.memBytes,
			})
		}
	}
	return rows
}

// epsGridFor returns the threshold grid for a dataset under a mode,
// rescaling raw grids to the synthetic data's σ (see RawEps).
func epsGridFor(d *Dataset, mode series.NormMode) []float64 {
	if mode == series.NormNone {
		_, std := series.MeanStd(d.Data)
		return RawEps(d.EpsNorm, std)
	}
	return d.EpsNorm
}

func defaultEpsFor(d *Dataset, mode series.NormMode) float64 {
	if mode == series.NormNone {
		_, std := series.MeanStd(d.Data)
		return d.DefaultEpsNorm * std
	}
	return d.DefaultEpsNorm
}

// Figure4 — query time vs ε on globally z-normalized data, all methods
// (paper Fig. 4).
func (r *Runner) Figure4() []Row {
	var rows []Row
	for _, d := range r.Datasets() {
		r.logf("Figure 4: %s", d.Name)
		rows = append(rows, r.sweep("4", d, series.NormGlobal, AllMethods, d.EpsNorm, DefaultL, DefaultM, "eps")...)
	}
	return rows
}

// Figure5 — query time vs subsequence length ℓ at the default ε
// (paper Fig. 5). Each ℓ requires a fresh set of indices.
func (r *Runner) Figure5() []Row {
	var rows []Row
	for _, d := range r.Datasets() {
		r.logf("Figure 5: %s", d.Name)
		ext := r.extractor(d, series.NormGlobal)
		for _, l := range LengthGrid {
			queries := r.workload(d, ext, l)
			for _, m := range AllMethods {
				b, err := buildMethod(m, ext, l, DefaultM)
				if err != nil {
					r.logf("  l=%d %s: skipped (%v)", l, m, err)
					continue
				}
				avgMs, avgRes, avgCands := measure(b, queries, d.DefaultEpsNorm)
				rows = append(rows, Row{
					Figure: "5", Dataset: d.Name, Method: m.String(),
					Param:      fmt.Sprintf("l=%d", l),
					AvgQueryMs: avgMs, AvgResults: avgRes, AvgCandidates: avgCands,
					BuildMs: b.buildTime.Seconds() * 1000, MemBytes: b.memBytes,
				})
			}
			r.logf("  l=%d done", l)
		}
	}
	return rows
}

// Figure6 — query time vs ε with per-subsequence z-normalization
// (paper Fig. 6; KV-Index inapplicable).
func (r *Runner) Figure6() []Row {
	var rows []Row
	for _, d := range r.Datasets() {
		r.logf("Figure 6: %s", d.Name)
		rows = append(rows, r.sweep("6", d, series.NormPerSubsequence,
			[]MethodID{ISAX, TSIndex}, d.EpsNorm, DefaultL, DefaultM, "eps")...)
	}
	return rows
}

// Figure7 — query time vs ε on raw (non-normalized) data, all methods
// (paper Fig. 7).
func (r *Runner) Figure7() []Row {
	var rows []Row
	for _, d := range r.Datasets() {
		r.logf("Figure 7: %s", d.Name)
		rows = append(rows, r.sweep("7", d, series.NormNone, AllMethods,
			epsGridFor(d, series.NormNone), DefaultL, DefaultM, "eps")...)
	}
	return rows
}

// Figure8 — memory footprint (8a) and build time (8b) per index at the
// default parameters (paper Fig. 8). The sweepline is excluded: it has
// no index.
func (r *Runner) Figure8() []Row {
	var rows []Row
	for _, d := range r.Datasets() {
		r.logf("Figure 8: %s", d.Name)
		// Figure 8 measures build cost and structure size only; no disk
		// store is needed.
		ext := series.NewExtractor(d.Data, series.NormGlobal)
		for _, m := range []MethodID{KVIndex, ISAX, TSIndex} {
			b, err := buildMethod(m, ext, DefaultL, DefaultM)
			if err != nil {
				r.logf("  %s: skipped (%v)", m, err)
				continue
			}
			r.logf("  %s built in %v", m, b.buildTime.Round(time.Millisecond))
			rows = append(rows, Row{
				Figure: "8", Dataset: d.Name, Method: m.String(), Param: "defaults",
				BuildMs: b.buildTime.Seconds() * 1000, MemBytes: b.memBytes,
			})
		}
	}
	return rows
}

// FigureShard — beyond the paper: TS-Index construction and query time
// versus shard count (the ParIS/MESSI data-partitioning direction).
// Shard count 1 is the unchanged single-index baseline; "auto" is one
// shard per CPU. Results are identical across rows — only the time
// changes — so AvgResults doubles as a built-in parity check.
func (r *Runner) FigureShard() []Row {
	var rows []Row
	for _, d := range r.Datasets() {
		r.logf("Shard experiment: %s", d.Name)
		ext := r.extractor(d, series.NormGlobal)
		queries := r.workload(d, ext, DefaultL)
		for _, p := range []int{1, 2, 4, 0} {
			b, err := buildSharded(ext, DefaultL, p, r.Workers, nil, false)
			if err != nil {
				r.logf("  shards=%d: skipped (%v)", p, err)
				continue
			}
			label := fmt.Sprintf("shards=%d", p)
			if p <= 0 {
				label = "shards=auto"
			}
			r.logf("  %s built in %v", label, b.buildTime.Round(time.Millisecond))
			avgMs, avgRes, avgCands := measure(b, queries, d.DefaultEpsNorm)
			rows = append(rows, Row{
				Figure: "shard", Dataset: d.Name, Method: "TS-Index", Param: label,
				AvgQueryMs: avgMs, AvgResults: avgRes, AvgCandidates: avgCands,
				BuildMs: b.buildTime.Seconds() * 1000, MemBytes: b.memBytes,
			})
		}
	}
	return rows
}

// FigureFrozen — beyond the paper: the frozen TS-Index — the paper's
// tree compiled into the flat structure-of-arrays arena (packed bounds,
// index-range children) every query path runs on — as one index and
// sharded, with mean-sorted versus contiguous partitioning (tighter
// per-shard bounds versus a concatenation merge). Results are identical
// across rows — AvgResults doubles as a parity check; the columns of
// interest are query time and index bytes.
func (r *Runner) FigureFrozen() []Row {
	var rows []Row
	for _, d := range r.Datasets() {
		r.logf("Frozen-layout experiment: %s", d.Name)
		ext := r.extractor(d, series.NormGlobal)
		queries := r.workload(d, ext, DefaultL)
		type variant struct {
			label string
			build func() (built, error)
		}
		variants := []variant{
			{"layout=frozen", func() (built, error) { return buildMethod(TSIndex, ext, DefaultL, DefaultM) }},
			{"layout=frozen/shards=auto", func() (built, error) {
				return buildSharded(ext, DefaultL, 0, r.Workers, nil, false)
			}},
			{"layout=frozen/meanshards=auto", func() (built, error) {
				return buildSharded(ext, DefaultL, 0, r.Workers, nil, true)
			}},
		}
		for _, v := range variants {
			b, err := v.build()
			if err != nil {
				r.logf("  %s: skipped (%v)", v.label, err)
				continue
			}
			r.logf("  %s built in %v", v.label, b.buildTime.Round(time.Millisecond))
			avgMs, avgRes, avgCands := measure(b, queries, d.DefaultEpsNorm)
			rows = append(rows, Row{
				Figure: "frozen", Dataset: d.Name, Method: "TS-Index", Param: v.label,
				AvgQueryMs: avgMs, AvgResults: avgRes, AvgCandidates: avgCands,
				BuildMs: b.buildTime.Seconds() * 1000, MemBytes: b.memBytes,
			})
		}
	}
	return rows
}

// FigureSkew — beyond the paper: query latency under deliberately
// imbalanced shards (the last of four holding ~90% of the windows),
// with one executor worker versus a full pool. One goroutine per shard
// would leave a skewed partition's latency bounded by the hottest
// shard; the work-stealing executor splits every shard into subtree
// units, so the skewed rows should track the balanced rows once
// workers > 1 — the latency is bounded by total work, not by the
// largest partition. Result counts are identical across all rows (a
// built-in parity check, like FigureShard).
func (r *Runner) FigureSkew() []Row {
	const shards = 4
	d := r.EEG()
	r.logf("Skew experiment: %s", d.Name)
	ext := r.extractor(d, series.NormGlobal)
	queries := r.workload(d, ext, DefaultL)
	count := series.NumSubsequences(len(d.Data), DefaultL)
	parts := []struct {
		name   string
		bounds []int
	}{
		{"balanced", nil},
		{"skew90", SkewedBoundaries(count, shards, 0.9)},
	}
	ws := []int{1}
	if r.Workers != 1 {
		ws = append(ws, r.Workers)
	}
	var rows []Row
	for _, part := range parts {
		for _, w := range ws {
			label := fmt.Sprintf("%s/workers=%d", part.name, w)
			if w <= 0 {
				label = part.name + "/workers=auto"
			}
			b, err := buildSharded(ext, DefaultL, shards, w, part.bounds, false)
			if err != nil {
				r.logf("  %s: skipped (%v)", label, err)
				continue
			}
			r.logf("  %s built in %v", label, b.buildTime.Round(time.Millisecond))
			avgMs, avgRes, avgCands := measure(b, queries, d.DefaultEpsNorm)
			rows = append(rows, Row{
				Figure: "skew", Dataset: d.Name, Method: "TS-Index", Param: label,
				AvgQueryMs: avgMs, AvgResults: avgRes, AvgCandidates: avgCands,
				BuildMs: b.buildTime.Seconds() * 1000, MemBytes: b.memBytes,
			})
		}
	}
	return rows
}

// FigureColdOpen — beyond the paper: the cost of bringing a saved
// sharded index back to life, copy loader versus mmap. The copy rows
// decode the whole stream into heap arenas up front (open time and
// resident bytes are O(index)); the mmap rows validate the header,
// point the arenas at the mapping, and let queries fault pages in on
// demand (open is O(header), residency is whatever the workload
// touches, shared across processes). AvgResults is the parity check;
// MemBytes reports heap-resident bytes, where the two open paths
// differ most.
func (r *Runner) FigureColdOpen() []Row {
	const shards = 4
	d := r.EEG()
	r.logf("Cold-open experiment: %s", d.Name)
	ext := r.extractor(d, series.NormGlobal)
	queries := r.workload(d, ext, DefaultL)

	ix, err := shard.Build(ext, shard.Config{
		Config: core.Config{L: DefaultL}, Shards: shards, Executor: exec.New(r.Workers)})
	if err != nil {
		r.logf("  build failed (%v)", err)
		return nil
	}
	f, err := os.CreateTemp("", "twinsearch-coldopen-*.tsidx")
	if err != nil {
		r.logf("  temp index file unavailable (%v)", err)
		return nil
	}
	path := f.Name()
	if _, err := ix.WriteTo(f); err != nil {
		f.Close()
		os.Remove(path)
		r.logf("  save failed (%v)", err)
		return nil
	}
	f.Close()
	defer os.Remove(path)

	open := func(mmap, warm bool) (*shard.Index, func(), error) {
		if !mmap {
			sf, err := os.Open(path)
			if err != nil {
				return nil, nil, err
			}
			defer sf.Close()
			re, err := shard.Load(sf, ext, exec.New(r.Workers))
			return re, func() {}, err
		}
		ar, err := arena.Map(path)
		if err != nil {
			return nil, nil, err
		}
		re, err := shard.OpenArena(ar, ext, exec.New(r.Workers))
		if err != nil {
			ar.Close()
			return nil, nil, err
		}
		if warm {
			// The prefetch knob (Options.Prefetch): pay a bounded warmup
			// inside the open instead of page faults during the queries.
			ar.Prefetch(0)
		}
		return re, func() { ar.Close() }, nil
	}

	var rows []Row
	for _, label := range []string{"open=copy", "open=mmap", "open=mmap+warm"} {
		mmap := label != "open=copy"
		warm := label == "open=mmap+warm"
		start := time.Now()
		re, release, err := open(mmap, warm)
		if err != nil {
			r.logf("  %s: skipped (%v)", label, err)
			continue
		}
		openTime := time.Since(start)
		r.logf("  %s in %v (heap %d B, mapped %d B)", label, openTime.Round(time.Microsecond),
			re.MemoryBytes(), re.MappedBytes())
		avgMs, avgRes, avgCands := measure(built{method: TSIndex, s: shardAdapter{re}},
			queries, d.DefaultEpsNorm)
		rows = append(rows, Row{
			Figure: "coldopen", Dataset: d.Name, Method: "TS-Index", Param: label,
			AvgQueryMs: avgMs, AvgResults: avgRes, AvgCandidates: avgCands,
			BuildMs: openTime.Seconds() * 1000, MemBytes: re.MemoryBytes(),
		})
		release()
	}
	return rows
}

// clusterAdapter measures the distributed tier through the harness's
// searcher interface.
type clusterAdapter struct{ cl *cluster.Coordinator }

func (a clusterAdapter) search(q []float64, eps float64) (int, int) {
	ms, st, err := a.cl.SearchStats(context.Background(), q, eps)
	if err != nil {
		return 0, 0
	}
	return len(ms), st.Candidates
}

// FigureCluster — beyond the paper: the distributed shard tier
// (internal/cluster) against the local engine it must answer
// identically to. One saved 4-shard index is served by N in-process
// HTTP nodes (real wire format, loopback transport), each selectively
// mapping only its assigned segments; a coordinator fans every query
// out and merges. The "local" row is the same index searched in
// process; the nodes=N rows carry the per-query RPC + merge overhead
// (the price of horizontal memory scaling), BuildMs reports
// cluster-assembly time, and AvgResults is the cross-check — every row
// must agree.
func (r *Runner) FigureCluster() []Row {
	const shards = 4
	d := r.EEG()
	r.logf("Cluster experiment: %s", d.Name)
	ext := r.extractor(d, series.NormGlobal)
	queries := r.workload(d, ext, DefaultL)
	eps := d.DefaultEpsNorm

	ix, err := shard.Build(ext, shard.Config{
		Config: core.Config{L: DefaultL}, Shards: shards, Executor: exec.New(r.Workers)})
	if err != nil {
		r.logf("  build failed (%v)", err)
		return nil
	}
	f, err := os.CreateTemp("", "twinsearch-cluster-*.tsidx")
	if err != nil {
		r.logf("  temp index file unavailable (%v)", err)
		return nil
	}
	path := f.Name()
	if _, err := ix.WriteTo(f); err != nil {
		f.Close()
		os.Remove(path)
		r.logf("  save failed (%v)", err)
		return nil
	}
	f.Close()
	defer os.Remove(path)

	var rows []Row
	avgMs, avgRes, avgCands := measure(built{method: TSIndex, s: shardAdapter{ix}}, queries, eps)
	rows = append(rows, Row{Figure: "cluster", Dataset: d.Name, Method: "TS-Index",
		Param: "local", AvgQueryMs: avgMs, AvgResults: avgRes, AvgCandidates: avgCands})
	r.logf("  local: %.3f ms/query", avgMs)

	for _, nodes := range []int{1, 2, 4} {
		start := time.Now()
		topo := &cluster.Topology{Index: path}
		for i := 0; i < nodes; i++ {
			var run []int
			for s := i * shards / nodes; s < (i+1)*shards/nodes; s++ {
				run = append(run, s)
			}
			topo.Nodes = append(topo.Nodes, cluster.NodeSpec{
				Name: fmt.Sprintf("n%d", i), Addr: "pending", Shards: run})
		}
		var cleanup []func()
		fail := false
		for i := range topo.Nodes {
			n, err := cluster.OpenNode(topo, topo.Nodes[i].Name, ext, cluster.NodeOptions{Workers: r.Workers})
			if err != nil {
				r.logf("  nodes=%d: open failed (%v)", nodes, err)
				fail = true
				break
			}
			srv := httptest.NewServer(cluster.NewNodeRPC(n))
			topo.Nodes[i].Addr = srv.URL
			// Reverse-order release: the server must stop routing
			// requests into the subset before its arena unmaps.
			cleanup = append(cleanup, func() { n.Close() }, srv.Close)
		}
		release := func() {
			for i := len(cleanup) - 1; i >= 0; i-- {
				cleanup[i]()
			}
		}
		if fail {
			release()
			continue
		}
		cl, err := cluster.OpenCoordinator(context.Background(), topo, ext, DefaultL, cluster.Options{Workers: r.Workers})
		if err != nil {
			r.logf("  nodes=%d: coordinator failed (%v)", nodes, err)
			release()
			continue
		}
		openMs := time.Since(start).Seconds() * 1000
		avgMs, avgRes, avgCands := measure(built{method: TSIndex, s: clusterAdapter{cl}}, queries, eps)
		r.logf("  nodes=%d: %.3f ms/query (cluster up in %.1f ms)", nodes, avgMs, openMs)
		rows = append(rows, Row{Figure: "cluster", Dataset: d.Name, Method: "TS-Index",
			Param: fmt.Sprintf("nodes=%d", nodes), AvgQueryMs: avgMs,
			AvgResults: avgRes, AvgCandidates: avgCands, BuildMs: openMs})
		cl.Close()
		release()
	}
	return rows
}

// FigureIntro — the paper's §1 indicative experiment: on EEG, count
// twin results at ε versus Euclidean-range results at the no-false-
// negative threshold ε·√ℓ. The paper reports 1,034 vs 127,887 (≈124×)
// for one query; the harness reports workload totals and the ratio.
func (r *Runner) FigureIntro() []Row {
	d := r.EEG()
	r.logf("Intro experiment: %s", d.Name)
	// The intro experiment compares result-set sizes; it runs in memory
	// (SearchEuclidean does not route through the verifier).
	ext := series.NewExtractor(d.Data, series.NormGlobal)
	queries := r.workload(d, ext, DefaultL)
	sw := sweepline.New(ext)
	// The paper's intro experiment sits at a loose setting (its single
	// query returned 1,034 twins on the full series); use the top of
	// the ε grid so the twin set is non-trivial at reduced scales too.
	eps := d.EpsNorm[len(d.EpsNorm)-1]
	edThreshold := series.EuclideanThresholdFor(eps, DefaultL)

	var cheb, euc int
	startC := time.Now()
	for _, q := range queries {
		cheb += len(sw.Search(q, eps))
	}
	chebMs := time.Since(startC).Seconds() * 1000 / float64(len(queries))
	startE := time.Now()
	for _, q := range queries {
		euc += len(sw.SearchEuclidean(q, edThreshold))
	}
	eucMs := time.Since(startE).Seconds() * 1000 / float64(len(queries))

	n := float64(len(queries))
	return []Row{
		{Figure: "intro", Dataset: d.Name, Method: "Chebyshev",
			Param: fmt.Sprintf("eps=%g", eps), AvgQueryMs: chebMs, AvgResults: float64(cheb) / n},
		{Figure: "intro", Dataset: d.Name, Method: "Euclidean",
			Param: fmt.Sprintf("eps=%g*sqrt(%d)", eps, DefaultL), AvgQueryMs: eucMs, AvgResults: float64(euc) / n},
	}
}

package harness

import (
	"fmt"
	"io"
	"os"
	"time"

	"twinsearch/internal/datasets"
	"twinsearch/internal/series"
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
	// loose thresholds. Either way every method verifies through the
	// one series.Verifier and its kernel sweep: the setting decides only
	// where candidate windows are read from.
	DiskVerify bool

	insect, eeg *Dataset // lazily materialized
	diskStores  []*store.Disk
	diskFiles   []string
	err         error // the first set-up failure (Err)
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
// store when DiskVerify is set. A store that cannot be set up is an
// error, never a silent switch to memory: it is recorded for Err and
// the figure asking reports no rows.
func (r *Runner) extractor(d *Dataset, mode series.NormMode) (*series.Extractor, bool) {
	ext := series.NewExtractor(d.Data, mode)
	if r.DiskVerify {
		if err := r.attachDisk(d, ext); err != nil {
			if r.err == nil {
				r.err = fmt.Errorf("harness: disk-resident verification for %s: %w", d.Name, err)
			}
			return nil, false
		}
	}
	return ext, true
}

// Err returns the first failure to set up a figure — the disk store of
// DiskVerify — or nil. A figure that failed returned no rows for the
// affected dataset, so rows gathered while Err is non-nil are
// incomplete.
func (r *Runner) Err() error { return r.err }

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
	ext, ok := r.extractor(d, mode)
	if !ok {
		return nil
	}
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
		ext, ok := r.extractor(d, series.NormGlobal)
		if !ok {
			continue
		}
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

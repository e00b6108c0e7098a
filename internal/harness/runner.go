package harness

import (
	"fmt"
	"io"
	"os"
	"slices"
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

	// AvgQueryMs is the mean query time of one pass over the workload,
	// the median over Passes passes; QueryMsIQR is the interquartile
	// range of those passes (0 for one pass). Figure 8's rows time
	// builds instead: BuildMs is the median of Passes builds and
	// BuildMsIQR their interquartile range (elsewhere BuildMs is the
	// one build the figure queried, and BuildMsIQR is 0).
	AvgQueryMs    float64
	QueryMsIQR    float64
	Passes        int
	AvgResults    float64
	AvgCandidates float64
	BuildMs       float64
	BuildMsIQR    float64
	MemBytes      int

	// Q1Ms and Q3Ms are the lower and upper quartiles of the row's
	// timed passes — query time, or build time in Figure 8: the
	// interval the paper's time claims are tested on (Claims).
	Q1Ms, Q3Ms float64
}

// DefaultPasses is how many times NewRunner's runners time each
// (method, parameter) cell: one pass spreads about ±12 % at scale 0.1,
// as wide as some gaps the paper plots.
const DefaultPasses = 5

// Runner executes the paper's experiments. The zero value is not usable;
// construct with NewRunner.
type Runner struct {
	// Scale shrinks the EEG dataset (1 = the paper's 1.8M points).
	Scale float64
	// Queries is the workload size per experiment (paper: 100).
	Queries int
	// Seed drives dataset generation and workload sampling.
	Seed int64
	// Passes is how many times each (method, parameter) cell is timed.
	// The passes are interleaved: pass p times every cell of a figure's
	// grid before pass p+1 times any, so host drift hits every method
	// alike. Counters are the same on every pass.
	Passes int
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
// setup (disk-resident data), timing each cell DefaultPasses times.
func NewRunner(scale float64, seed int64) *Runner {
	return &Runner{Scale: scale, Queries: WorkloadSize, Seed: seed, Passes: DefaultPasses, DiskVerify: true}
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

// passes returns how many times a cell is timed: Passes, at least 1.
func (r *Runner) passes() int { return max(r.Passes, 1) }

// measureGrid times every built method at every threshold of the grid,
// r.passes() times, and returns one row per (method, threshold) in
// method-major order. Each pass times every cell before the next pass
// times any, so drift on the host lands on every method alike; a row's
// AvgQueryMs is the median of its passes and QueryMsIQR their spread.
func (r *Runner) measureGrid(figure, dataset string, methods []built, queries [][]float64, epsGrid []float64, param func(eps float64) string) []Row {
	rows := make([]Row, 0, len(methods)*len(epsGrid))
	for _, b := range methods {
		for _, eps := range epsGrid {
			rows = append(rows, Row{
				Figure: figure, Dataset: dataset, Method: b.method.String(), Param: param(eps),
				Passes:  r.passes(),
				BuildMs: b.buildTime.Seconds() * 1000, MemBytes: b.memBytes,
			})
		}
	}
	times := make([][]float64, len(rows))
	for p := 0; p < r.passes(); p++ {
		for i := range rows {
			b, eps := methods[i/len(epsGrid)], epsGrid[i%len(epsGrid)]
			ms, res, cands := measure(b, queries, eps)
			times[i] = append(times[i], ms)
			rows[i].AvgResults, rows[i].AvgCandidates = res, cands
		}
	}
	for i := range rows {
		rows[i].Q1Ms, rows[i].AvgQueryMs, rows[i].Q3Ms = quartiles(times[i])
		rows[i].QueryMsIQR = rows[i].Q3Ms - rows[i].Q1Ms
	}
	return rows
}

// quartiles returns the lower quartile, the median and the upper
// quartile of xs, interpolated linearly between order statistics (with
// five passes: the 2nd, 3rd and 4th values). xs is reordered.
func quartiles(xs []float64) (q1, median, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	slices.Sort(xs)
	q := func(p float64) float64 {
		at := p * float64(len(xs)-1)
		i := int(at)
		if i+1 == len(xs) {
			return xs[i]
		}
		return xs[i] + (at-float64(i))*(xs[i+1]-xs[i])
	}
	return q(0.25), q(0.5), q(0.75)
}

// buildAll builds every method over ext, in order, skipping (and
// logging) the ones that do not apply — KV-Index under per-subsequence
// normalization, recorded as absent exactly like the paper's Fig. 6.
func (r *Runner) buildAll(methods []MethodID, ext *series.Extractor, l, segments int) []built {
	var out []built
	for _, m := range methods {
		b, err := buildMethod(m, ext, l, segments)
		if err != nil {
			r.logf("  %s: skipped (%v)", m, err)
			continue
		}
		r.logf("  %s built in %v", m, b.buildTime.Round(time.Millisecond))
		out = append(out, b)
	}
	return out
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
	return r.measureGrid(figure, d.Name, r.buildAll(methods, ext, l, segments), queries, epsGrid,
		func(eps float64) string { return fmt.Sprintf("%s=%.4g", paramName, eps) })
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
			r.logf("  l=%d", l)
			queries := r.workload(d, ext, l)
			rows = append(rows, r.measureGrid("5", d.Name, r.buildAll(AllMethods, ext, l, DefaultM), queries,
				[]float64{d.DefaultEpsNorm}, func(float64) string { return fmt.Sprintf("l=%d", l) })...)
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
// no index. Each index is built r.passes() times, interleaved as
// measureGrid times queries (pass p builds every index before pass p+1
// builds any); the footprint is the same on every pass.
func (r *Runner) Figure8() []Row {
	var rows []Row
	for _, d := range r.Datasets() {
		r.logf("Figure 8: %s", d.Name)
		// Figure 8 measures build cost and structure size only; no disk
		// store is needed.
		ext := series.NewExtractor(d.Data, series.NormGlobal)
		methods := []MethodID{KVIndex, ISAX, TSIndex}
		out := make([]Row, len(methods))
		times := make([][]float64, len(methods))
		for p := 0; p < r.passes(); p++ {
			for i, m := range methods {
				b, err := buildMethod(m, ext, DefaultL, DefaultM)
				if err != nil {
					r.logf("  %s: skipped (%v)", m, err)
					continue
				}
				r.logf("  %s built in %v", m, b.buildTime.Round(time.Millisecond))
				times[i] = append(times[i], b.buildTime.Seconds()*1000)
				out[i] = Row{Figure: "8", Dataset: d.Name, Method: m.String(), Param: "defaults", MemBytes: b.memBytes}
			}
		}
		for i := range out {
			if len(times[i]) == 0 {
				continue
			}
			out[i].Passes = len(times[i])
			out[i].Q1Ms, out[i].BuildMs, out[i].Q3Ms = quartiles(times[i])
			out[i].BuildMsIQR = out[i].Q3Ms - out[i].Q1Ms
			rows = append(rows, out[i])
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

	rows := []Row{
		{Figure: "intro", Dataset: d.Name, Method: "Chebyshev", Param: fmt.Sprintf("eps=%g", eps)},
		{Figure: "intro", Dataset: d.Name, Method: "Euclidean", Param: fmt.Sprintf("eps=%g*sqrt(%d)", eps, DefaultL)},
	}
	search := []func(q []float64) int{
		func(q []float64) int { return len(sw.Search(q, eps)) },
		func(q []float64) int { return len(sw.SearchEuclidean(q, edThreshold)) },
	}
	n := float64(len(queries))
	times := make([][]float64, len(rows))
	for p := 0; p < r.passes(); p++ { // interleaved, as measureGrid's
		for i, f := range search {
			results := 0
			start := time.Now()
			for _, q := range queries {
				results += f(q)
			}
			times[i] = append(times[i], time.Since(start).Seconds()*1000/n)
			rows[i].AvgResults = float64(results) / n
		}
	}
	for i := range rows {
		rows[i].Q1Ms, rows[i].AvgQueryMs, rows[i].Q3Ms = quartiles(times[i])
		rows[i].QueryMsIQR = rows[i].Q3Ms - rows[i].Q1Ms
		rows[i].Passes = r.passes()
	}
	return rows
}

// Command bench is the served-query benchmark: it drives an in-process
// tsserve handler over a real loopback socket on four workloads, checks
// the answers against a brute-force oracle, and reports the end-to-end
// metrics of BENCHMARK.json — or, with -trace 1, replays the same queries
// at every layer boundary and reports the per-layer ones. See README.md.
//
//	go run -C bench twinsearch/bench                       # all four workloads
//	go run -C bench twinsearch/bench -workload point -seed 7 -seconds 10 -trace 1
//	go run -C bench twinsearch/bench -smoke -trace 1       # everything, small, seconds
//	go run -C bench twinsearch/bench -compare a.json b.json
//	go run -C bench twinsearch/bench -spec > BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"twinsearch/internal/mbts/kernel"
	"twinsearch/internal/series"
)

// config is what the flags select.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	out      string

	// Scaled down together by -smoke.
	n           int
	appendEvery int
	ladderOps   int
	microScale  int
}

// scale fills the sizes -smoke scales down: 1/10 of the series, 1/100 of
// the append period, 1/50 of the ladder, and, unless -seconds was given,
// a 0.3 s loop.
func (c *config) scale(secondsGiven bool) {
	c.n, c.appendEvery, c.ladderOps, c.microScale = fullN, appendEvery, ladderOps, 16
	if c.smoke {
		c.n, c.appendEvery, c.ladderOps, c.microScale = smokeN, appendEvery/100, ladderOps/50, 1
		if !secondsGiven {
			c.seconds = 0.3
		}
	}
}

// environment is everything that must match for two result files to be
// comparable, plus what identifies the run.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel"`
	N          int     `json:"n"`
	Clients    int     `json:"clients"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Time       string  `json:"time"`
	WallS      float64 `json:"wall_s"`
}

// result is one workload's run.
type result struct {
	Correct          bool    `json:"correct"`
	Attempted        int     `json:"attempted"`
	Failed           int     `json:"failed"`
	FirstError       string  `json:"first_error,omitempty"`
	OracleChecked    int     `json:"oracle_checked"`
	OracleMismatches int     `json:"oracle_mismatches"`
	PrepS            float64 `json:"prep_s"`
	// RefUS is the median latency of the loop's reference request: reported
	// loop timings are wall-clock times scaled by refNominalUS / RefUS.
	RefUS    float64           `json:"ref_request_us"`
	Requests map[string]int    `json:"requests"`
	EndToEnd map[string]metric `json:"end_to_end"`
	PerLayer map[string]metric `json:"per_layer,omitempty"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env       environment        `json:"env"`
	Workloads map[string]*result `json:"workloads"`
}

func unitOf(name string) string {
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range specs {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	panic("bench: metric " + name + " is not in spec.go")
}

// set records a per-layer value under its spec'd unit.
func (r *run) set(name string, v float64) {
	r.layer[name] = metric{Value: v, Unit: unitOf(name)}
}

// observe adds one sample to a per-layer metric reported as a median.
func (r *run) observe(name string, v float64) {
	r.samples[name] = append(r.samples[name], v)
}

// runWorkload is one workload end to end: prep, timed set-up, the
// untraced closed loop, the oracle pass and, traced, the layer ladder.
func runWorkload(cfg config, w *workloadDef, data []float64) (res *result, err error) {
	dir, err := os.MkdirTemp(".", "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &run{cfg: cfg, w: w, dir: dir, data: data, layer: map[string]metric{}, samples: map[string][]float64{}}
	res = &result{EndToEnd: map[string]metric{}}
	if err := r.generate(); err != nil {
		return nil, err
	}
	body, err := r.body(opSearch, 0)
	if err != nil {
		return nil, err
	}
	if r.ref, err = newReference(body); err != nil {
		return nil, err
	}
	defer r.ref.close()

	t0 := time.Now()
	if w.pool {
		r.baseCounts()
	}
	if w.prep != nil {
		if err := w.prep(r); err != nil {
			return nil, fmt.Errorf("%s: prep: %w", w.name, err)
		}
	}
	res.PrepS = time.Since(t0).Seconds()

	s, err := r.setup()
	if err != nil {
		return nil, err
	}
	defer s.close()
	l, err := r.measure(s, res)
	if err != nil {
		return nil, err
	}
	r.oraclePass(l, res)
	res.Correct = res.Failed == 0
	r.set("failed_share", float64(res.Failed)/float64(res.Attempted))
	if cfg.trace {
		if err := r.traced(s); err != nil {
			return nil, err
		}
		res.PerLayer = r.perLayerMetrics()
	}
	return res, nil
}

// traced is the -trace 1 half: what set-up was made of, the layer
// ladder, the micro measurements, and the trace file.
func (r *run) traced(s *served) error {
	// Set-up's timed path under its layer's name.
	setupS := median(r.setups)
	if unitOf(r.w.setupMetric) == "ms" {
		r.set(r.w.setupMetric, setupS*1e3)
	} else {
		r.set(r.w.setupMetric, setupS)
		r.set("build.windows_per_s", float64(r.windows())/setupS)
	}
	// The ladder reopens the saved index; the workloads that built theirs
	// in memory save it now.
	path := r.w.saved(r)
	if _, err := os.Stat(path); err != nil {
		t0 := time.Now()
		if err := s.eng.SaveIndexFile(path); err != nil {
			return err
		}
		r.set("persist.save_s", time.Since(t0).Seconds())
	}
	if info, err := os.Stat(path); err == nil {
		r.set("persist.stream_bytes", float64(info.Size()))
	}

	ld, err := newLadder(r, s)
	if err != nil {
		return err
	}
	defer ld.close()
	r.microKernel(ld.ext)
	r.microSeries(ld.ext)
	r.microExec()
	if err := ld.replay(); err != nil {
		return err
	}
	if err := ld.extras(); err != nil {
		return err
	}
	ld.report()
	r.microQCache(int(r.layer["core.results_per_query"].Value))
	r.set("proc.peak_rss_mb", peakRSSMB())
	return ld.writeTrace()
}

// perLayerMetrics closes the per-layer set: sampled metrics become
// medians, and every spec'd name a workload's chain bypasses reads 0.
func (r *run) perLayerMetrics() map[string]metric {
	for name, xs := range r.samples {
		if _, ok := r.layer[name]; !ok {
			r.layer[name] = med(xs, unitOf(name))
		}
	}
	out := map[string]metric{}
	for _, m := range perLayer {
		v := r.layer[m.Name]
		v.Unit = m.Unit
		out[m.Name] = v
	}
	return out
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printTable prints every metric by name with its unit, sample count and
// noise floor.
func printTable(title string, ms map[string]metric, order []metricSpec) {
	fmt.Printf("%s\n", title)
	for _, spec := range order {
		m, ok := ms[spec.Name]
		if !ok {
			continue
		}
		val := fmt.Sprintf("%.6g", m.Value)
		if m.Unresolved {
			val = fmt.Sprintf("unresolved (%.3g within noise)", m.Raw)
		}
		fmt.Printf("  %-34s %s %s", spec.Name, val, m.Unit)
		if m.N > 0 {
			fmt.Printf("  n=%d", m.N)
		}
		if m.Noise > 0 {
			fmt.Printf("  noise=%.3g", m.Noise)
		}
		fmt.Println()
	}
}

// contractLine is the last line of stdout for one workload: the
// end-to-end metrics untraced, the per-layer metrics traced.
func contractLine(res *result, trace bool) string {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := res.EndToEnd
	if trace {
		src = res.PerLayer
	}
	ms := map[string]vu{}
	for name, m := range src {
		ms[name] = vu{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, ms})
	if err != nil {
		panic(err) // finite numbers and strings only
	}
	return string(line)
}

func writeJSON(path string, v interface{}) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func main() {
	var cfg config
	var trace int
	var spec, compare bool
	flag.StringVar(&cfg.workload, "workload", "", "run one workload (point, wide-sharded, hot-append, cluster-r2); default all four")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the queries, Zipf draws and append picks (never of the dataset)")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "how long each workload's closed loop measures")
	flag.IntVar(&trace, "trace", 0, "1: also replay the layer ladder and report the per-layer metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "n = 20 000 and 1/100 of the work: every code path in seconds")
	flag.StringVar(&cfg.out, "out", "results/last.json", "result file to write (for -compare); trace files go beside it")
	flag.BoolVar(&spec, "spec", false, "print BENCHMARK.json and exit")
	flag.BoolVar(&compare, "compare", false, "compare two result files: -compare a.json b.json")
	flag.Parse()

	switch {
	case spec:
		raw, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(raw))
		return
	case compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		worse, err := compareFiles(flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	cfg.trace = trace != 0
	cfg.scale(flagSet("seconds"))
	file, err := runAll(cfg)
	if err != nil {
		fatal(err)
	}
	for _, res := range file.Workloads {
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// runAll runs the selected workloads in turn, prints every metric by
// name, writes the result file, and ends stdout with one contract line
// per workload.
func runAll(cfg config) (*resultFile, error) {
	selected := workloads
	if cfg.workload != "" {
		w := workloadByName(cfg.workload)
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q", cfg.workload)
		}
		selected = []*workloadDef{w}
	}
	if err := os.MkdirAll(filepath.Dir(cfg.out), 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	file := &resultFile{Workloads: map[string]*result{}, Env: environment{
		Commit: commit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel: kernel.Active(), N: cfg.n, Clients: clients, Seconds: cfg.seconds, Smoke: cfg.smoke,
		Seed: cfg.seed, Trace: cfg.trace, Time: start.UTC().Format(time.RFC3339)}}
	data := loadSeries(cfg.n)
	var lines []string
	for _, w := range selected {
		res, err := runWorkload(cfg, w, data)
		if err != nil {
			return nil, err
		}
		file.Workloads[w.name] = res
		fmt.Printf("== %s: %d windows of length %d, %d clients, %.3gs measured; prep %.3gs; requests %v\n",
			w.name, series.NumSubsequences(cfg.n, seqLen), seqLen, clients, cfg.seconds, res.PrepS, res.Requests)
		fmt.Printf("calibrated time: the reference request took %.4g us (nominal %.4g), so loop timings are wall-clock x %.4g\n",
			res.RefUS, refNominalUS, refNominalUS/res.RefUS)
		printTable("end-to-end:", res.EndToEnd, endToEnd)
		if cfg.trace {
			printTable("per-layer:", res.PerLayer, perLayer)
		}
		fmt.Printf("oracle: %d answers checked, %d mismatches; %d attempted, %d failed\n",
			res.OracleChecked, res.OracleMismatches, res.Attempted, res.Failed)
		if res.FirstError != "" {
			fmt.Printf("first failure: %s\n", res.FirstError)
		}
		lines = append(lines, contractLine(res, cfg.trace))
	}
	file.Env.WallS = time.Since(start).Seconds()
	if err := writeJSON(cfg.out, file); err != nil {
		return nil, err
	}
	fmt.Println(strings.Join(lines, "\n"))
	return file, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(1)
}

// Command tsbench regenerates the paper's evaluation: Figures 4–8 plus
// the §1 intro experiment and Figure 5l (Figure 5's lengths answered by
// one index built at the longest), printed as aligned tables (and optionally
// CSV), followed by the paper's time claims (harness.Claims), each
// reported as holding, tied or reversed on the measured quartiles.
// Every query-time cell, and every Figure 8 build, is timed
// harness.DefaultPasses times, the passes interleaved across methods; a
// row reports the median and the interquartile range. With -json the
// rows are written with the host, the kernel dispatch and the commit
// the binary was built from (go build stamps it; go run does not).
//
// Usage:
//
//	tsbench                       # every figure at the default scale
//	tsbench -figure 4             # one figure
//	tsbench -full                 # paper-sized EEG (1.8M points; slow)
//	tsbench -scale 0.1 -queries 20  # quick look
//	tsbench -csv results.csv      # also dump machine-readable rows
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"twinsearch/internal/harness"
	"twinsearch/internal/mbts/kernel"
)

func main() {
	var (
		figure   = flag.String("figure", "all", "which experiment: intro, 4, 5, 5l (one index at the longest ℓ answering every ℓ of Figure 5), 6, 7, 8, all")
		scale    = flag.Float64("scale", 0.1, "EEG dataset scale (1 = paper's 1,801,999 points)")
		full     = flag.Bool("full", false, "shorthand for -scale 1 (with -queries 100 this is the paper's exact setup; expect hours: the sweepline pays one random read per window per query)")
		queries  = flag.Int("queries", 30, "workload size per experiment (paper: 100)")
		seed     = flag.Int64("seed", 1, "dataset and workload seed")
		csvPath  = flag.String("csv", "", "also write rows as CSV to this path")
		jsonPath = flag.String("json", "", "also write rows as JSON (with host/dispatch metadata) to this path")
		quiet    = flag.Bool("quiet", false, "suppress progress logging")
		mem      = flag.Bool("mem", false, "read candidates from memory instead of the paper's disk-resident setup (every method verifies through the same kernel sweep either way)")
	)
	flag.Parse()
	if *full {
		*scale = 1
	}

	r := harness.NewRunner(*scale, *seed)
	defer r.Close()
	r.Queries = *queries
	r.DiskVerify = !*mem
	if !*quiet {
		r.Log = os.Stderr
	}

	var rows []harness.Row
	run := func(name string, f func() []harness.Row) {
		if *figure == "all" || *figure == name {
			rows = append(rows, f()...)
			if err := r.Err(); err != nil {
				fmt.Fprintf(os.Stderr, "tsbench: %v\n", err)
				r.Close()
				os.Exit(1)
			}
		}
	}
	run("intro", r.FigureIntro)
	run("4", r.Figure4)
	run("5", r.Figure5)
	run("5l", r.Figure5L)
	run("6", r.Figure6)
	run("7", r.Figure7)
	run("8", r.Figure8)

	if len(rows) == 0 {
		fmt.Fprintf(os.Stderr, "tsbench: unknown figure %q\n", *figure)
		os.Exit(2)
	}

	harness.PrintTable(os.Stdout, rows)

	if claims := harness.Claims(rows); len(claims) > 0 {
		fmt.Println("\n== The paper's time claims, on the interquartile intervals ==")
		for _, c := range claims {
			fmt.Println(c)
		}
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tsbench: %v\n", err)
			os.Exit(1)
		}
		harness.PrintCSV(f, rows)
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "tsbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d rows to %s\n", len(rows), *csvPath)
	}

	if *jsonPath != "" {
		verify := "disk"
		if *mem {
			verify = "memory"
		}
		doc := struct {
			Tool    string        `json:"tool"`
			Figure  string        `json:"figure"`
			Host    string        `json:"host"`
			Commit  string        `json:"commit"`
			GOARCH  string        `json:"goarch"`
			CPUs    int           `json:"cpus"`
			Kernel  string        `json:"kernel_dispatch"`
			Verify  string        `json:"verify"`
			Scale   float64       `json:"scale"`
			Queries int           `json:"queries"`
			Passes  int           `json:"passes"`
			Seed    int64         `json:"seed"`
			Rows    []harness.Row `json:"rows"`
		}{
			Tool: "tsbench", Figure: *figure,
			Host: host(), Commit: commit(),
			GOARCH: runtime.GOARCH, CPUs: runtime.NumCPU(),
			Kernel: kernel.Active(), Verify: verify,
			Scale: *scale, Queries: *queries, Passes: r.Passes, Seed: *seed,
			Rows: rows,
		}
		raw, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "tsbench: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "tsbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d rows to %s\n", len(rows), *jsonPath)
	}
}

// host names the CPU the rows were measured on: the first "model name"
// of /proc/cpuinfo where there is one, else the OS and architecture.
func host() string {
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOOS + "/" + runtime.GOARCH
}

// commit is the VCS revision the binary was built from, "+modified"
// when the tree had uncommitted changes, or "unknown" when the build
// recorded none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	if modified {
		rev += "+modified"
	}
	return rev
}

// Command tsquery builds a TS-Index over a series file (or reopens a
// saved one) and answers a twin subsequence query against it. The
// paper's baseline methods are not options here: cmd/tsbench runs them.
//
// The query is either a window of the indexed series itself
// (-qstart, convenient for exploration) or a separate series file
// (-qfile) whose entire content is the query.
//
// Usage:
//
//	tsquery -series eeg.f64 -qstart 5000 -l 100 -eps 0.2
//	tsquery -series eeg.f64 -qfile query.f64 -eps 0.2 -norm persub
//	tsquery -series eeg.f64 -qstart 0 -l 100 -topk 5
//	tsquery -series eeg.f64 -qstart 0 -l 100 -shards 4 -saveindex eeg.tssh
//	tsquery -series eeg.f64 -qstart 0 -l 100 -loadindex eeg.tssh -mmap
//
// A saved index holds no series and is a pure function of (series,
// options), so the -saveindex line is also how a file written by an
// older version is brought forward: rebuild it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"twinsearch"
	"twinsearch/internal/obs"
	"twinsearch/internal/store"
)

func main() {
	var (
		seriesPath = flag.String("series", "", "series file (binary float64, required)")
		qFile      = flag.String("qfile", "", "query file (binary float64); mutually exclusive with -qstart")
		qStart     = flag.Int("qstart", -1, "query = series window starting here")
		l          = flag.Int("l", 100, "subsequence length (ignored with -qfile)")
		eps        = flag.Float64("eps", 0.2, "Chebyshev distance threshold")
		topk       = flag.Int("topk", 0, "if > 0, run a top-k query instead of a threshold query")
		norm       = flag.String("norm", "global", "normalization: raw, global, persub")
		maxShow    = flag.Int("show", 20, "print at most this many matches")
		saveIndex  = flag.String("saveindex", "", "after building, persist the TS-Index here")
		loadIndex  = flag.String("loadindex", "", "reopen a TS-Index persisted with -saveindex instead of rebuilding")
		mmapIndex  = flag.Bool("mmap", false, "memory-map the -loadindex file instead of reading it (near-zero open cost; pages fault in as the query touches them)")
		prefetch   = flag.Bool("prefetch", false, "warm a memory-mapped index at open (madvise + bounded touch) instead of paying page faults during the query")
		remote     = flag.String("remote", "", "query a running tsserve (standalone or coordinator) at this base URL instead of building anything locally")
		approx     = flag.Int("approx", 0, "if > 0, run an approximate search probing this many leaves")
		indexLen   = flag.Int("indexlen", 0, "index at this length instead of the query length; shorter queries then use the prefix search")
		shards     = flag.Int("shards", 0, "index partitions built and searched in parallel (0 = one index, -1 = one per CPU)")
		trace      = flag.Bool("trace", false, "record the query's span trace and pretty-print it after the matches (with -remote, asks the server via ?trace=1)")
	)
	flag.Parse()
	if *seriesPath == "" && !(*remote != "" && *qFile != "") {
		fmt.Fprintln(os.Stderr, "tsquery: -series is required (except with -remote -qfile)")
		flag.Usage()
		os.Exit(2)
	}

	var data []float64
	var err error
	if *seriesPath != "" {
		data, err = store.ReadFile(*seriesPath)
		if err != nil {
			fatal(err)
		}
	}

	var q []float64
	switch {
	case *qFile != "":
		q, err = store.ReadFile(*qFile)
		if err != nil {
			fatal(err)
		}
		*l = len(q)
	case *qStart >= 0:
		if *qStart+*l > len(data) {
			fatal(fmt.Errorf("query window [%d, %d) outside series of length %d", *qStart, *qStart+*l, len(data)))
		}
		q = append([]float64(nil), data[*qStart:*qStart+*l]...)
	default:
		fatal(fmt.Errorf("one of -qfile or -qstart is required"))
	}

	if *remote != "" {
		// The server owns the index; this process only ships the raw
		// query and renders the answer.
		if *approx > 0 || *indexLen > 0 || *saveIndex != "" || *loadIndex != "" {
			fatal(fmt.Errorf("-remote queries use the server's index; -approx, -indexlen, -saveindex, and -loadindex do not apply"))
		}
		queryRemote(*remote, q, *eps, *topk, *maxShow, *trace)
		return
	}

	if *mmapIndex && *loadIndex == "" {
		fatal(fmt.Errorf("-mmap requires -loadindex (only a saved index can be mapped)"))
	}
	opt := twinsearch.Options{L: *l, NormSet: true, Shards: *shards,
		MMap: *mmapIndex, Prefetch: *prefetch}
	if *indexLen > 0 {
		if *indexLen < len(q) {
			fatal(fmt.Errorf("-indexlen %d below query length %d", *indexLen, len(q)))
		}
		opt.L = *indexLen
	}
	switch *norm {
	case "raw":
		opt.Norm = twinsearch.NormNone
	case "global":
		opt.Norm = twinsearch.NormGlobal
	case "persub":
		opt.Norm = twinsearch.NormPerSubsequence
	default:
		fatal(fmt.Errorf("unknown norm %q", *norm))
	}

	buildStart := time.Now()
	var eng *twinsearch.Engine
	if *loadIndex != "" {
		eng, err = twinsearch.OpenSavedFile(data, *loadIndex, opt)
		if err != nil {
			fatal(err)
		}
		how := ""
		if eng.MappedBytes() > 0 {
			how = fmt.Sprintf(", %d bytes mmap-resident", eng.MappedBytes())
		}
		fmt.Printf("reopened index over %d subsequences (TS-Index, %s%s) in %v\n",
			eng.NumSubsequences(), eng.Norm(), how, time.Since(buildStart).Round(time.Millisecond))
	} else {
		eng, err = twinsearch.Open(data, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("indexed %d subsequences of length %d with TS-Index (%s) in %v\n",
			eng.NumSubsequences(), eng.L(), eng.Norm(), time.Since(buildStart).Round(time.Millisecond))
	}
	// Release the mapped arena (and any attached store) on every exit
	// path; fatal exits skip this, which the OS cleans up anyway.
	defer eng.Close()
	if *saveIndex != "" {
		if err := eng.SaveIndexFile(*saveIndex); err != nil {
			fatal(err)
		}
		fmt.Printf("persisted index to %s\n", *saveIndex)
	}

	// -trace installs a root span in the context; the engine's layers
	// grow the tree under it, printed after the matches.
	ctx := context.Background()
	var tr *obs.Trace
	if *trace {
		tr = obs.NewTrace("tsquery")
		ctx = obs.WithSpan(ctx, tr.Root)
	}

	queryStart := time.Now()
	var matches []twinsearch.Match
	switch {
	case *topk > 0:
		matches, err = eng.SearchTopKCtx(ctx, q, *topk)
	case *approx > 0:
		matches, err = eng.SearchApproxCtx(ctx, q, *eps, *approx)
	case len(q) < eng.L():
		matches, err = eng.SearchShorterCtx(ctx, q, *eps)
	default:
		matches, err = eng.SearchCtx(ctx, q, *eps)
	}
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(queryStart)

	if *topk > 0 {
		fmt.Printf("top-%d nearest in %v:\n", *topk, elapsed.Round(time.Microsecond))
		for _, m := range matches {
			fmt.Printf("  start=%-10d chebyshev=%.6f\n", m.Start, m.Dist)
		}
		printTrace(tr)
		return
	}
	fmt.Printf("%d twins at eps=%g in %v\n", len(matches), *eps, elapsed.Round(time.Microsecond))
	for i, m := range matches {
		if i >= *maxShow {
			fmt.Printf("  ... %d more\n", len(matches)-*maxShow)
			break
		}
		fmt.Printf("  start=%d\n", m.Start)
	}
	printTrace(tr)
}

// printTrace finishes and pretty-prints a local trace (nil = -trace was
// not given).
func printTrace(tr *obs.Trace) {
	if tr == nil {
		return
	}
	tr.Finish()
	fmt.Println("trace:")
	obs.WriteTree(os.Stdout, tr.Root)
}

// queryRemote sends the query to a running tsserve's public JSON API
// (/search or /topk) and prints the matches like a local run would. It
// works against any role that serves the public API — a standalone
// server or a cluster coordinator.
func queryRemote(base string, q []float64, eps float64, topk, maxShow int, trace bool) {
	path, body := "/search", map[string]interface{}{"query": q, "eps": eps}
	if topk > 0 {
		path, body = "/topk", map[string]interface{}{"query": q, "k": topk}
	}
	if trace {
		path += "?trace=1"
	}
	raw, err := json.Marshal(body)
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e) == nil && e.Error != "" {
			fatal(fmt.Errorf("%s: %s", path, e.Error))
		}
		fatal(fmt.Errorf("%s: %s", path, resp.Status))
	}
	var out struct {
		Count   int `json:"count"`
		Matches []struct {
			Start int      `json:"start"`
			Dist  *float64 `json:"dist"`
		} `json:"matches"`
		Trace *obs.Span `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	if topk > 0 {
		fmt.Printf("top-%d nearest via %s in %v:\n", topk, base, elapsed.Round(time.Microsecond))
		for _, m := range out.Matches {
			d := -1.0
			if m.Dist != nil {
				d = *m.Dist
			}
			fmt.Printf("  start=%-10d chebyshev=%.6f\n", m.Start, d)
		}
		printRemoteTrace(out.Trace)
		return
	}
	fmt.Printf("%d twins at eps=%g via %s in %v\n", out.Count, eps, base, elapsed.Round(time.Microsecond))
	for i, m := range out.Matches {
		if i >= maxShow {
			fmt.Printf("  ... %d more\n", out.Count-maxShow)
			break
		}
		fmt.Printf("  start=%d\n", m.Start)
	}
	printRemoteTrace(out.Trace)
}

// printRemoteTrace pretty-prints the server's span tree when the
// response carried one (?trace=1).
func printRemoteTrace(s *obs.Span) {
	if s == nil {
		return
	}
	fmt.Println("trace:")
	obs.WriteTree(os.Stdout, s)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "tsquery: %v\n", err)
	os.Exit(1)
}

// Command tsserve loads a series, builds (or reopens) a TS-Index over
// it, and serves twin subsequence search over HTTP with a JSON API.
//
// Standalone (the default role):
//
//	tsserve -series eeg.f64 -l 100 -addr :8080
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/search -d '{"query":[...100 values...],"eps":0.3}'
//	curl -s -X POST localhost:8080/topk   -d '{"query":[...],"k":5}'
//	curl -s -X POST localhost:8080/append -d '{"values":[...]}'
//
// Distributed, over a saved TSSH v4 index and a topology file (see
// internal/cluster): each node memory-maps only its assigned shard
// segments and serves the shard RPC; the coordinator fans queries out
// and merges deterministically — answers are byte-identical to one
// local engine.
//
//	tsserve -role node        -series eeg.f64 -topology topo.json -name n1
//	tsserve -role coordinator -series eeg.f64 -topology topo.json -l 100 -addr :8080
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"syscall"
	"time"

	"twinsearch"
	"twinsearch/internal/cluster"
	"twinsearch/internal/series"
	"twinsearch/internal/server"
	"twinsearch/internal/store"
)

func main() {
	var (
		seriesPath  = flag.String("series", "", "series file (binary float64, required)")
		l           = flag.Int("l", 100, "indexed subsequence length")
		addr        = flag.String("addr", ":8080", "listen address (node role defaults to its topology entry's port)")
		norm        = flag.String("norm", "global", "normalization: raw, global, persub")
		loadIndex   = flag.String("loadindex", "", "reopen a persisted TS-Index instead of rebuilding")
		mmapIndex   = flag.Bool("mmap", false, "memory-map the saved index instead of reading it: near-zero open cost, demand paging, one physical copy shared across processes (standalone role with -loadindex; a node always maps its shards)")
		prefetch    = flag.Bool("prefetch", false, "warm a memory-mapped index at open (madvise + bounded touch pass) instead of paying the page-fault tail on the first queries (standalone role with -mmap, and the node role)")
		shards      = flag.Int("shards", 0, "index partitions built and searched in parallel (0 = one index, -1 = one per CPU)")
		workers     = flag.Int("workers", 0, "query-executor workers shared by all requests (0 = one per CPU)")
		role        = flag.String("role", "standalone", "serving role: standalone, node (serve assigned shards of a saved index), coordinator (fan out over a cluster)")
		topology    = flag.String("topology", "", "cluster topology file (node and coordinator roles)")
		nodeName    = flag.String("name", "", "this node's name in the topology (node role)")
		nodeTimeout = flag.Duration("node-timeout", 0, "per-attempt RPC deadline for coordinator fan-out; an attempt missing it fails over to the next replica (0 = 10s default)")
		hedge       = flag.Duration("hedge", 0, "coordinator hedging delay: re-issue a query unit to a second replica after this long and take the first response (0 = off; needs a replicated topology)")
		healthEvery = flag.Duration("health-interval", 0, "coordinator background health-sweep period: marks nodes a failed attempt put down up again once they answer, and feeds /healthz's cached membership view (0 = 2s default, negative = off)")
		resultCache = flag.Int("result-cache-bytes", -1, "result cache byte budget: whole answers keyed by (query, params, path); after an Append an entry is extended over the windows gained (-1 = default 32MiB, 0 = off)")
		maxInflight = flag.Int("max-inflight", 0, "admission control: max concurrently executing queries; past it requests queue up to -max-queue, then shed with 429 + Retry-After (0 = unlimited)")
		maxQueue    = flag.Int("max-queue", 64, "admission control: requests allowed to wait for an in-flight slot before shedding (needs -max-inflight)")
		retryAfter  = flag.Duration("retry-after", time.Second, "Retry-After hint written on shed (429) responses")
		traceSample = flag.Int("trace-sample", 0, "trace 1 in N queries into the metrics/slowlog pipeline (0 = off; ?trace=1 forces a trace per request regardless)")
		slowThresh  = flag.Duration("slowlog-threshold", 100*time.Millisecond, "queries at least this slow are recorded in the slow-query log at /debug/slowlog")
		slowSize    = flag.Int("slowlog-size", 128, "slow-query log ring-buffer capacity (0 = off)")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default; drain-exempt when on)")
	)
	flag.Parse()
	if *seriesPath == "" {
		fmt.Fprintln(os.Stderr, "tsserve: -series is required")
		flag.Usage()
		os.Exit(2)
	}

	data, err := store.ReadFile(*seriesPath)
	if err != nil {
		fatal(err)
	}
	normMode, err := parseNorm(*norm)
	if err != nil {
		fatal(err)
	}

	addrSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "addr" {
			addrSet = true
		}
	})
	srvCfg := server.Config{MaxInflight: *maxInflight, MaxQueue: *maxQueue, RetryAfter: *retryAfter}

	switch *role {
	case "node":
		if *topology == "" || *nodeName == "" {
			fatal(fmt.Errorf("-role node requires -topology and -name"))
		}
		serveNode(data, normMode, *topology, *nodeName, *addr, addrSet, *workers, *prefetch, *pprofOn)
	case "coordinator":
		if *topology == "" {
			fatal(fmt.Errorf("-role coordinator requires -topology"))
		}
		opt := twinsearch.Options{L: *l, Norm: normMode, NormSet: true,
			Workers: *workers, Topology: *topology, ClusterTimeout: *nodeTimeout,
			ClusterHedge: *hedge, ClusterRefresh: *healthEvery, ResultCacheBytes: *resultCache,
			TraceSample: *traceSample, SlowLogSize: *slowSize, SlowLogThreshold: *slowThresh}
		serveEngine(data, opt, "", *addr, srvCfg, *pprofOn)
	case "standalone":
		if *mmapIndex && *loadIndex == "" {
			fatal(fmt.Errorf("-mmap requires -loadindex (only a saved index can be mapped)"))
		}
		opt := twinsearch.Options{L: *l, Norm: normMode, NormSet: true, Shards: *shards,
			Workers: *workers, MMap: *mmapIndex, Prefetch: *prefetch, ResultCacheBytes: *resultCache,
			TraceSample: *traceSample, SlowLogSize: *slowSize, SlowLogThreshold: *slowThresh}
		serveEngine(data, opt, *loadIndex, *addr, srvCfg, *pprofOn)
	default:
		fatal(fmt.Errorf("unknown role %q", *role))
	}
}

// withPprof optionally mounts net/http/pprof's handlers ahead of h.
// They are routed before the role handler's own mux, so profiling works
// identically for all three roles and stays reachable while the server
// drains (the drain gate lives inside h).
func withPprof(h http.Handler, on bool) http.Handler {
	if !on {
		return h
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", h)
	return mux
}

// serveEngine runs the standalone and coordinator roles: build or
// reopen (or cluster-open) an engine and serve the public JSON API.
func serveEngine(data []float64, opt twinsearch.Options, loadIndex, addr string, cfg server.Config, pprofOn bool) {
	start := time.Now()
	var eng *twinsearch.Engine
	var err error
	if loadIndex != "" {
		eng, err = twinsearch.OpenSavedFile(data, loadIndex, opt)
	} else {
		eng, err = twinsearch.Open(data, opt)
	}
	if err != nil {
		fatal(err)
	}
	mapped := ""
	if mb := eng.MappedBytes(); mb > 0 {
		mapped = fmt.Sprintf(" (%d bytes mmap-resident)", mb)
	}
	if cl := eng.Cluster(); cl != nil {
		fmt.Printf("tsserve: coordinator over %d node(s) / %d shard(s), %d windows of length %d, ready in %v%s; listening on %s\n",
			len(cl.Health()), cl.TotalShards(), eng.NumSubsequences(), eng.L(),
			time.Since(start).Round(time.Millisecond), mapped, addr)
	} else {
		fmt.Printf("tsserve: %d windows of length %d in %d shard(s), %d executor worker(s), ready in %v%s; listening on %s\n",
			eng.NumSubsequences(), eng.L(), eng.Shards(), eng.Workers(),
			time.Since(start).Round(time.Millisecond), mapped, addr)
	}
	h := server.NewWithConfig(eng, cfg)
	serveUntilSignal(addr, withPprof(h, pprofOn), h.BeginDrain, eng.Close)
}

// serveNode runs the node role: selectively open the assigned shard
// subset and serve the shard RPC.
func serveNode(data []float64, norm series.NormMode, topoPath, name, addr string, addrSet bool, workers int, prefetch, pprofOn bool) {
	topo, err := cluster.LoadTopology(topoPath)
	if err != nil {
		fatal(err)
	}
	if !addrSet {
		// Listen where the topology says peers will dial this node. A
		// dial URL we cannot derive a port from would silently leave
		// the node on the unrelated default while peers dial elsewhere,
		// so demand an explicit -addr instead.
		spec, err := topo.Node(name)
		if err != nil {
			fatal(err)
		}
		derived, err := listenAddrOf(spec.Addr)
		if err != nil {
			fatal(fmt.Errorf("cannot derive a listen port from topology addr %q (%v); pass -addr explicitly", spec.Addr, err))
		}
		addr = derived
	}
	start := time.Now()
	ext := series.NewExtractor(data, norm)
	n, err := cluster.OpenNode(topo, name, ext, cluster.NodeOptions{Workers: workers, Prefetch: prefetch})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("tsserve: node %q serving shards %v (%d of %d windows, %d bytes mapped), ready in %v; listening on %s\n",
		name, n.Sub.ShardIDs(), n.Sub.Windows(), series.NumSubsequences(ext.Len(), n.Sub.L()),
		n.Sub.MappedBytes(), time.Since(start).Round(time.Millisecond), addr)
	h := cluster.NewNodeRPC(n)
	serveUntilSignal(addr, withPprof(h, pprofOn), h.BeginDrain, n.Close)
}

// listenAddrOf turns a topology dial URL into a listen address
// (":8081" from "http://10.0.0.5:8081").
func listenAddrOf(dial string) (string, error) {
	u, err := url.Parse(dial)
	if err != nil {
		return "", err
	}
	if p := u.Port(); p != "" {
		return ":" + p, nil
	}
	return "", fmt.Errorf("no port in %q", dial)
}

// serveUntilSignal serves h until SIGINT/SIGTERM, then drains: new
// queries get 503 immediately, in-flight requests finish, and only then
// does closeFn release resources (a mapped engine must never unmap
// under a live traversal).
func serveUntilSignal(addr string, h http.Handler, beginDrain func(), closeFn func() error) {
	srv := &http.Server{Addr: addr, Handler: h}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-stop
		beginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
	if err := <-done; err != nil {
		// Shutdown timed out: requests may still be traversing mapped
		// arenas, so closing (unmapping) under them would crash. Exit
		// and let the OS reclaim everything instead.
		fmt.Fprintf(os.Stderr, "tsserve: shutdown: %v; exiting without unmapping\n", err)
		os.Exit(1)
	}
	if err := closeFn(); err != nil {
		fatal(err)
	}
	fmt.Println("tsserve: closed, bye")
}

func parseNorm(s string) (series.NormMode, error) {
	switch s {
	case "raw":
		return twinsearch.NormNone, nil
	case "global":
		return twinsearch.NormGlobal, nil
	case "persub":
		return twinsearch.NormPerSubsequence, nil
	default:
		return 0, fmt.Errorf("unknown norm %q", s)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "tsserve: %v\n", err)
	os.Exit(1)
}

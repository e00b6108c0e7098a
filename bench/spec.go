package main

// The benchmark's contract: workloads, metrics, units, directions and
// regression bounds. BENCHMARK.json at the repository root is this table
// printed by `go run -C bench . -spec`; bench_test.go asserts the two
// agree in both directions, and that every run emits exactly these names.

// metricSpec is one row of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer
// metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// runSeconds is how long one run's closed loop measures (the driver
// passes it back as --seconds).
const runSeconds = 15

var workloadSpecs = []workloadSpec{
	{"point", "paper default served: insertion-built index, distinct eps=0.2 searches + top-10, so traversal and kernel dominate and the result cache is pure tax"},
	{"wide-sharded", "4-shard engine, distinct eps=1.0 searches with thousands of matches: verification, exec fan-out/merge and response JSON encoding do the work"},
	{"hot-append", "copy-opened index, Zipf pool of 512 queries that fits the cache, an append every 2000th op: hit path is transport+JSON+qcache, appends force epoch bump and re-freeze"},
	{"cluster-r2", "coordinator over 4 loopback shard nodes (2 groups x 2 replicas) mmap-opening a saved index: the only workload where cluster RPC wire time exists"},
}

// End-to-end metrics: what a caller of the served system sees. Every
// workload emits every one of them and none is ever 0 (the builder's
// contract), which is why every workload carries a /topk share and why
// the append-only and failure metrics live in perLayer instead.
//
// The timing bounds are the contract's maximum, not the 0.10-0.15 the
// issue hoped for: on the 2-vCPU reference VM a pure ALU loop changes
// speed by 25 % for seconds at a time (shared cores and cache), and ten
// 10 s runs of one commit and seed spread 5-17 % between their quartiles
// on the traversal-bound workloads. A bound inside that spread would
// reject the parent against itself. See README.md, "Noise".
var endToEnd = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"search_p50_ms", "ms", lower, 0.25},
	{"search_p95_ms", "ms", lower, 0.25},
	{"topk_p50_ms", "ms", lower, 0.25},
	{"topk_p95_ms", "ms", lower, 0.25},
	{"qps", "1/s", higher, 0.25},
	{"index_bytes_per_window", "bytes/window", lower, 0.01},
}

// Per-layer metrics, layer = module name. A metric whose layer a
// workload bypasses is emitted as 0 on that workload.
var perLayer = []metricSpec{
	// Untraced-run figures that cannot be end-to-end under the contract
	// (hot-append only, or 0 by design).
	{"append_p50_ms", "ms", lower, 0},
	{"search_after_append_p50_ms", "ms", lower, 0},
	{"failed_share", "ratio", lower, 0},

	{"kernel.dist_ns_per_lane", "ns", lower, 0},
	{"kernel.abandon_ns_per_lane", "ns", lower, 0},
	{"kernel.est_us_per_query", "us", lower, 0},
	{"kernel.bytes_per_query", "bytes", lower, 0},

	{"core.nodes_visited_per_query", "count", lower, 0},
	{"core.nodes_pruned_per_query", "count", lower, 0},
	{"core.leaves_per_query", "count", lower, 0},
	{"core.candidates_per_query", "count", lower, 0},
	{"core.abandons_per_query", "count", lower, 0},
	{"core.results_per_query", "count", higher, 0},
	{"core.prune_ratio", "ratio", higher, 0},
	{"core.candidates_per_result", "ratio", lower, 0},
	{"core.search_us", "us", lower, 0},
	{"core.topk_us", "us", lower, 0},
	{"core.ns_per_node", "ns", lower, 0},

	{"series.prepare_us", "us", lower, 0},
	{"series.verify_hit_ns", "ns", lower, 0},
	{"series.verify_miss_ns", "ns", lower, 0},
	{"series.est_verify_us_per_query", "us", lower, 0},

	{"exec.spawn_ns_per_unit", "ns", lower, 0},
	{"exec.steals_per_query", "count", lower, 0},

	{"shard.search_us", "us", lower, 0},
	{"shard.per_shard_sum_us", "us", lower, 0},
	{"shard.fanout_us", "us", lower, 0},
	{"shard.merge_us", "us", lower, 0},

	{"qcache.result_hit_ratio", "ratio", higher, 0},
	{"qcache.plan_hit_ratio", "ratio", higher, 0},
	{"qcache.result_evictions", "count", lower, 0},
	{"qcache.result_bytes", "bytes", lower, 0},
	{"qcache.key_ns", "ns", lower, 0},
	{"qcache.get_hit_ns", "ns", lower, 0},
	{"qcache.get_miss_ns", "ns", lower, 0},
	{"qcache.put_ns", "ns", lower, 0},

	{"engine.search_us", "us", lower, 0},
	{"engine.topk_us", "us", lower, 0},
	{"engine.self_us", "us", lower, 0},
	{"engine.hit_us", "us", lower, 0},
	{"engine.miss_us", "us", lower, 0},
	{"engine.cache_miss_tax_us", "us", lower, 0},
	{"engine.append_us", "us", lower, 0},
	{"engine.refreeze_ms", "ms", lower, 0},
	{"engine.allocs_per_query", "count", lower, 0},

	{"server.handler_us", "us", lower, 0},
	{"server.self_us", "us", lower, 0},
	{"server.json_decode_us", "us", lower, 0},
	{"server.json_encode_us", "us", lower, 0},
	{"server.req_bytes_per_query", "bytes", lower, 0},
	{"server.resp_bytes_per_query", "bytes", lower, 0},
	{"server.allocs_per_query", "count", lower, 0},

	{"http.search_us", "us", lower, 0},
	{"http.transport_us", "us", lower, 0},
	{"http.search_p99_ms", "ms", lower, 0},
	{"http.topk_p99_ms", "ms", lower, 0},

	{"cluster.search_us", "us", lower, 0},
	{"cluster.topk_us", "us", lower, 0},
	{"cluster.rpc_overhead_us", "us", lower, 0},
	{"cluster.rpcs_per_query", "count", lower, 0},
	{"cluster.req_bytes_per_query", "bytes", lower, 0},
	{"cluster.resp_bytes_per_query", "bytes", lower, 0},
	{"cluster.failovers", "count", lower, 0},
	{"cluster.assemble_ms", "ms", lower, 0},

	{"build.insert_s", "s", lower, 0},
	{"build.sharded_s", "s", lower, 0},
	{"build.windows_per_s", "1/s", higher, 0},
	{"persist.save_s", "s", lower, 0},
	{"persist.stream_bytes", "bytes", lower, 0},
	{"persist.open_copy_ms", "ms", lower, 0},
	{"persist.open_mmap_ms", "ms", lower, 0},

	{"obs.forced_trace_overhead_us", "us", lower, 0},
	{"obs.trace_overhead_ratio", "ratio", lower, 0},

	{"proc.peak_rss_mb", "MB", lower, 0},
	{"proc.gc_pause_total_ms", "ms", lower, 0},
	{"proc.gc_cycles", "count", lower, 0},
	{"bench.trace_overhead_ratio", "ratio", lower, 0},
	// The reference request the loop is calibrated by: the run's host speed.
	{"bench.ref_request_us", "us", lower, 0},
}

func benchmarkSpec() benchmarkFile {
	return benchmarkFile{
		Command:    []string{"go", "run", "-C", "bench", "twinsearch/bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

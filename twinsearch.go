// Package twinsearch is a Go implementation of twin subsequence search
// in time series — finding every subsequence of a long series whose
// Chebyshev (L∞) distance to a query sequence is at most ε — after
// "Twin Subsequence Search in Time Series" (EDBT 2021).
//
// Engine is the paper's contribution, TS-Index: a height-balanced tree
// whose nodes carry Minimum Bounding Time Series, the fastest method
// under every condition the paper evaluates. The methods the paper
// compares it with — iSAX, KV-Index and the index-free sweepline, each
// extended to Chebyshev search — are baselines, not engine options: they
// live in internal/isax, internal/kvindex and internal/sweepline, and
// cmd/tsbench (Figures 4–8) is the tool that runs them.
//
// Basic use:
//
//	eng, err := twinsearch.Open(data, twinsearch.Options{L: 100})
//	if err != nil { ... }
//	matches, err := eng.Search(query, 0.3)
//
// Queries are given in the raw value space of the input series; the
// engine applies the configured normalization to data and query
// consistently.
package twinsearch

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"twinsearch/internal/arena"
	"twinsearch/internal/cluster"
	"twinsearch/internal/core"
	"twinsearch/internal/exec"
	"twinsearch/internal/obs"
	"twinsearch/internal/qcache"
	"twinsearch/internal/series"
	"twinsearch/internal/shard"
	"twinsearch/internal/store"
)

// NormMode selects how values are normalized before indexing and search;
// see the paper §3.1 and the constants below.
type NormMode = series.NormMode

// Normalization modes.
const (
	// NormNone indexes raw values.
	NormNone = series.NormNone
	// NormGlobal z-normalizes the whole series once (paper default).
	NormGlobal = series.NormGlobal
	// NormPerSubsequence z-normalizes every window independently.
	NormPerSubsequence = series.NormPerSubsequence
)

// Match is a search hit: the 0-based start of the twin subsequence and,
// when the search computes it (SearchTopK), its Chebyshev distance
// (otherwise -1).
type Match = series.Match

// Options configures an Engine. The zero value of every field selects a
// sensible default; only L is mandatory.
type Options struct {
	// L is the subsequence length the engine indexes and queries
	// (paper default 100). Required.
	L int
	// Norm selects the normalization mode (default NormGlobal, the
	// paper's default setting).
	Norm NormMode
	// NormSet forces Norm to be honored even when it is the zero value;
	// set it when you explicitly want NormNone. (NormNone is the
	// NormMode zero value, so Options{Norm: NormNone} alone is
	// indistinguishable from "use the default".)
	NormSet bool

	MinCap, MaxCap int // node capacities µc, Mc (defaults 10, 30; Mc ≤ 1024)

	// Shards splits the TS-Index into that many window partitions, built
	// concurrently and searched by parallel fan-out with a deterministic
	// merge — answers are identical to the single index; construction
	// and search scale with cores. 0 (or 1) is the single index: one
	// partition holding every window, searched inline without fan-out
	// and saved as a bare single-index stream. A negative value selects
	// one shard per available CPU (GOMAXPROCS).
	Shards int

	// Workers sizes the engine's query executor — the worker pool
	// that runs every parallel search path: sharded fan-out, where
	// each query becomes one work unit per shard, and the units of
	// concurrent queries share the workers through one FIFO queue, in
	// submission order. 0 selects GOMAXPROCS.
	// Neither answers nor traversal counters depend on the worker count.
	Workers int

	// MMap makes OpenSavedFile memory-map the saved index instead of
	// reading it: the engine's frozen arenas become views into the
	// mapped file, so opening a multi-gigabyte index costs O(header)
	// allocations, pages fault in on demand, and N processes serving
	// the same index share one physical copy. A mapped open verifies the
	// headers' checksums and the structure, not the sections (a read
	// open verifies every byte). Where the file cannot be mapped it is
	// read and verified in full instead, with byte-identical answers.
	// Call Engine.Close to release the mapping. Ignored by every entry
	// point except OpenSavedFile.
	MMap bool

	// Prefetch warms a memory-mapped index right after OpenSavedFile
	// maps it: madvise(MADV_WILLNEED) over the region plus a bounded
	// sequential touch pass (see arena.Prefetch). It trades the
	// page-fault latency tail of the first queries for a fixed warmup
	// cost at open. Ignored without MMap (heap engines are already
	// resident).
	Prefetch bool

	// Topology points Open at a cluster topology file instead of a
	// local index: the engine becomes a distributed-query coordinator
	// that fans every search across the shard nodes listed there
	// (internal/cluster) and merges deterministically — answers are
	// byte-identical to a local engine over the same saved index. The
	// engine still needs the full series (data) for query
	// normalization, verification-free merging, and the prefix tail
	// scan. Cluster engines are read-only: Append and SaveIndex return
	// errors, and HeapBytes and MappedBytes are 0 (the nodes hold the
	// index). MMap, Prefetch, Shards, MinCap and MaxCap are ignored: the
	// saved index fixed the partition, and each node opens its shards.
	Topology string

	// ClusterTimeout bounds every per-node RPC of a Topology engine; an
	// attempt that cannot answer within it fails over to the shard's
	// next replica, and only when every replica is out does the query
	// fail with an error naming the nodes. 0 selects the cluster
	// default (10s). The bound is per attempt and absolute: it also
	// caps any longer deadline on the caller's context.
	ClusterTimeout time.Duration

	// ClusterHedge, when positive, hedges each cluster query unit: the
	// same unit goes to a second replica after this delay, the first
	// response wins, the loser is canceled. Needs a replicated topology
	// (Replicas ≥ 2) to have any effect. 0 disables hedging. Measured
	// (internal/cluster BenchmarkReplicaFault, loopback, -cpu 1, Xeon):
	// with one replica answering 20 ms late, a 2 ms hedge takes a query
	// from 20.5 ms to 2.5 ms.
	ClusterHedge time.Duration

	// ClusterRefresh is the period of the coordinator's background
	// membership sweep, which marks down nodes up again once they
	// answer (a failed query attempt marks its node down; /healthz
	// surfaces both). 0 selects the cluster default (2s); negative
	// disables the sweep.
	ClusterRefresh time.Duration

	// PlanCache sizes the prepared-query plan cache: an LRU keyed by
	// the raw query bytes that stores the validated query mapped into
	// the engine's value space, so a repeated query skips validation
	// and normalization and goes straight to index dispatch. 0
	// disables the cache (the default — library callers pay nothing
	// unless they opt in); a negative value selects
	// DefaultPlanCacheEntries; a positive value is the entry bound.
	// Serving tiers (tsserve) enable it by default.
	PlanCache int

	// ResultCacheBytes sizes the result cache: whole answers keyed by
	// (query bytes, parameters, search path), bounded to this many
	// bytes with LRU eviction. A hit returns the cached matches —
	// byte-identical to a fresh traversal — without touching the
	// index. Invalidation is structural, never a scan of the cache: a
	// local TS-Index engine's Search and SearchTopK entries record the
	// windows they cover, and after an Append a lookup verifies only
	// the windows gained; every other entry has the engine's epoch
	// (see Epoch) in its key, so an Append makes it unreachable and it
	// ages out under the byte budget. 0 disables (default), negative selects
	// DefaultResultCacheBytes, positive is the byte bound. Every query
	// entry point consults it: Search, SearchTopK, their Ctx forms and
	// SearchShorterCtx.
	ResultCacheBytes int

	// TraceSample enables 1-in-N per-query trace sampling: every Nth
	// raw query (across all paths) records a span tree — validation,
	// cache outcomes, per-shard traversal counters, cluster attempts —
	// retained in the slow-query log when the query crosses its
	// threshold. 0 disables sampling (the default); tracing can still
	// be forced per query by installing a span in the context (the
	// server does this for ?trace=1). The untraced path is
	// allocation-free regardless of this knob.
	TraceSample int

	// SlowLogSize enables the slow-query log: a ring buffer of the N
	// most recent queries whose latency reached SlowLogThreshold,
	// surfaced at the server's GET /debug/slowlog and via
	// Engine.SlowLog. 0 disables it (the default).
	SlowLogSize int

	// SlowLogThreshold is the latency at or above which a query enters
	// the slow-query log. 0 selects 100ms. Ignored without SlowLogSize.
	SlowLogThreshold time.Duration
}

// check fills o's defaults and runs the checks every open path — Open,
// OpenSaved, OpenSavedFile with and without MMap — applies to its
// options and series. Every value must be finite: NaN compares false
// against every threshold, so a NaN window would silently match
// everything instead of nothing (and a saved index's structural checks,
// comparisons all, cannot see one either).
func (o *Options) check(data []float64) error {
	if o.L <= 0 {
		return fmt.Errorf("twinsearch: Options.L = %d; a positive subsequence length is required", o.L)
	}
	if !o.NormSet && o.Norm == NormNone {
		o.Norm = NormGlobal
	}
	if len(data) < o.L {
		return fmt.Errorf("twinsearch: series length %d shorter than L=%d", len(data), o.L)
	}
	if i := nonFinite(data); i >= 0 {
		return fmt.Errorf("twinsearch: non-finite value %v at position %d; clean or impute missing samples first", data[i], i)
	}
	return nil
}

// Engine holds a built TS-Index over one time series and answers twin
// queries against it.
type Engine struct {
	opt Options
	ext *series.Extractor
	ex  *exec.Executor // query executor; sized by Options.Workers

	// sh is the local TS-Index, whatever Options.Shards resolved to: a
	// single index is a shard.Index of one shard. It owns the frozen
	// arenas every search traverses, and the tail of appended windows
	// every search scans until a compaction folds it in. nil for cluster
	// engines.
	sh *shard.Index

	// cl serves queries when the engine was opened with
	// Options.Topology: a distributed coordinator fanning out to shard
	// nodes instead of any local index.
	cl *cluster.Coordinator

	// ar is the mapped file region backing the index when the engine
	// was opened with Options.MMap; the engine owns it and Close
	// releases it. nil for every heap-resident engine: a read arena
	// lives as long as a shard views it, so a compaction that rebuilds
	// the one shard viewing it frees it.
	ar *arena.Arena

	// Serving-tier caches (nil when disabled): plan holds prepared
	// queries keyed by raw query bytes, res holds whole answers keyed
	// by (query, params, path) and versioned by the epoch or by their
	// window count (see searchCached). See Options.PlanCache /
	// Options.ResultCacheBytes.
	plan *qcache.PlanCache
	res  *qcache.ResultCache

	// epoch is the index mutation counter the result-cache keys of the
	// answers an Append invalidates embed (see resultKey): bumped on
	// every Append (and on Close), never on compaction (the logical
	// content is unchanged). A cluster engine is read-only, so its
	// epoch stays 0 while it is open.
	epoch atomic.Uint64

	// Observability (internal/obs): met is the always-on metric set
	// behind Engine.Metrics and GET /metrics; sampler decides which
	// queries grow a span tree (Options.TraceSample); slow retains
	// above-threshold queries (nil unless Options.SlowLogSize). See
	// obs_engine.go.
	met     *engineMetrics
	sampler *obs.Sampler
	slow    *obs.SlowLog

	// closed guards use-after-Close: every search/mutation entry point
	// fails with ErrClosed instead of reaching arenas that may point
	// into an unmapped region. closeMu makes concurrent Close calls
	// idempotent.
	closed  atomic.Bool
	closeMu sync.Mutex
}

// Serving-tier cache defaults, selected by negative Options.PlanCache /
// Options.ResultCacheBytes (and by tsserve's flag defaults).
const (
	DefaultPlanCacheEntries = 4096
	DefaultResultCacheBytes = 32 << 20
)

// newEngine builds the common engine shell every open path shares:
// extractor, executor, and the serving-tier caches the options select.
func newEngine(data []float64, opt Options) *Engine {
	e := &Engine{opt: opt, ext: series.NewExtractor(data, opt.Norm), ex: exec.New(opt.Workers)}
	if n := opt.PlanCache; n != 0 {
		if n < 0 {
			n = DefaultPlanCacheEntries
		}
		e.plan = qcache.NewPlan(n)
	}
	if b := opt.ResultCacheBytes; b != 0 {
		if b < 0 {
			b = DefaultResultCacheBytes
		}
		e.res = qcache.NewResult(b)
	}
	e.met = newEngineMetrics()
	e.sampler = obs.NewSampler(opt.TraceSample)
	e.slow = obs.NewSlowLog(opt.SlowLogSize, opt.SlowLogThreshold)
	e.registerEngineGauges()
	return e
}

// ErrClosed is returned by every search, append, and save entry point
// once Engine.Close has run: a closed engine's arenas may point into an
// unmapped file region, so the guard turns a potential fault into a
// clean error.
var ErrClosed = errors.New("twinsearch: engine is closed")

// Close releases the resources an engine may hold beyond the heap: the
// mapped index region (Options.MMap), the cluster coordinator's local
// mappings and idle connections (Options.Topology), and the series
// store attached to the extractor, if it is closeable (e.g. a
// store.Disk serving disk-resident verification). Heap-only engines
// close trivially. Close is idempotent, safe to race with itself, and
// every call after the first returns nil; searches, appends, and saves
// beginning after Close fail with ErrClosed. A search still in flight
// when Close lands is not protected — quiesce first (tsserve drains
// before closing).
func (e *Engine) Close() error {
	e.closeMu.Lock()
	defer e.closeMu.Unlock()
	if e.closed.Load() {
		return nil
	}
	e.closed.Store(true)
	// Close is a cache-relevant mutation too: bump the epoch so an
	// epoch-keyed result-cache write racing the close can never be read
	// back (its key embeds the pre-close epoch; every lookup after the
	// close fails with ErrClosed before it reaches the cache anyway).
	e.epoch.Add(1)
	var firstErr error
	if e.cl != nil {
		firstErr = e.cl.Close()
	}
	if e.ar != nil {
		if err := e.ar.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		e.ar = nil
	}
	if c, ok := e.ext.Backing().(io.Closer); ok {
		e.ext.DetachStore()
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// resolveShards maps the Options.Shards knob to an effective shard
// count: negative is one per CPU, 0 is the single index.
func resolveShards(shards int) int {
	if shards < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(shards, 1)
}

// Open builds an engine over data according to opt. The slice is not
// copied for raw/per-subsequence modes and must not be modified
// afterwards. Every value must be finite — a NaN window would match
// every query — so a series holding NaN or ±Inf is refused.
func Open(data []float64, opt Options) (*Engine, error) {
	start := time.Now()
	if err := opt.check(data); err != nil {
		return nil, err
	}
	e := newEngine(data, opt)
	if opt.Topology != "" {
		topo, err := cluster.LoadTopology(opt.Topology)
		if err != nil {
			return nil, err
		}
		cl, err := cluster.OpenCoordinator(context.Background(), topo, e.ext, opt.L, cluster.Options{
			Timeout: opt.ClusterTimeout, HedgeDelay: opt.ClusterHedge, RefreshInterval: opt.ClusterRefresh,
		})
		if err != nil {
			return nil, err
		}
		e.cl = cl
		e.registerClusterGauges()
		e.registerIndexInfo(start)
		return e, nil
	}
	var err error
	e.sh, err = shard.Build(e.ext, shard.Config{
		Config: core.Config{L: opt.L, MinCap: opt.MinCap, MaxCap: opt.MaxCap},
		Shards: resolveShards(opt.Shards), Executor: e.ex,
	})
	if err != nil {
		return nil, err
	}
	e.registerIndexInfo(start)
	return e, nil
}

// nonFinite returns the position of the first NaN or ±Inf in vs, or -1.
// Every value entering the engine — series, appends, queries — passes
// it: NaN compares false against every threshold, so a NaN window or
// query would match everything instead of nothing.
func nonFinite(vs []float64) int {
	for i, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return i
		}
	}
	return -1
}

// finiteQuery refuses a query holding a NaN or ±Inf with the one text
// every search path gives it.
func finiteQuery(q []float64) error {
	if i := nonFinite(q); i >= 0 {
		return fmt.Errorf("twinsearch: non-finite query value %v at position %d", q[i], i)
	}
	return nil
}

// OpenFile builds an engine over a series stored in the flat binary
// float64 format written by store.WriteFile / cmd/tsgen.
func OpenFile(path string, opt Options) (*Engine, error) {
	data, err := store.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Open(data, opt)
}

// Search returns all subsequences whose Chebyshev distance to q is at
// most eps, ordered by start position. q is in the raw value space of
// the input series and must have length L with finite values.
func (e *Engine) Search(q []float64, eps float64) ([]Match, error) {
	return e.SearchCtx(context.Background(), q, eps)
}

// SearchCtx is Search honoring cancellation: when ctx ends, queued
// fan-out work units are skipped, in-flight remote calls abort, and the
// call returns ctx.Err() — the hook internal/server uses to stop
// burning executor time for disconnected clients.
func (e *Engine) SearchCtx(ctx context.Context, q []float64, eps float64) ([]Match, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	ctx, qo := e.beginQuery(ctx, qpSearch)
	key := e.resultKey(qcache.PathSearch, eps, q)
	tq, err := e.validateQueryCtx(ctx, q, eps, key)
	if err != nil {
		e.endQuery(qo, err)
		return nil, err
	}
	r, err := e.searchCached(ctx, qcache.PathSearch, key, tq, eps, func() (qcache.Result, error) {
		ms, err := e.searchPreparedCtx(ctx, tq, eps)
		return qcache.Result{Matches: ms}, err
	})
	e.endQuery(qo, err)
	return r.Matches, err
}

// validateQueryHit runs the full raw-query validation and returns the
// query mapped into the engine's value space, also reporting whether
// the plan came from the plan cache — the bit the trace layer
// annotates — for a request whose result-cache key, if it has one, is
// rkey.
func (e *Engine) validateQueryHit(q []float64, eps float64, rkey string) ([]float64, bool, error) {
	if eps < 0 || math.IsNaN(eps) {
		return nil, false, fmt.Errorf("twinsearch: invalid threshold %v", eps)
	}
	return e.planQuery(q, rkey)
}

// planQuery validates a raw query (length, finiteness) and maps it
// into the engine's value space, consulting the plan cache when one is
// configured: a hit skips both the validation pass and the transform
// (cached plans were stored post-validation, and the transform is a
// pure function of the query bytes — the global normalization
// parameters are frozen at Open, so a plan never goes stale). The
// returned slice is shared on a hit and must be treated as read-only;
// every search path already does. The plan key is the query's bytes,
// which a request with a result-cache key (rkey, from resultKey; "" for
// none) has already encoded as that key's tail.
func (e *Engine) planQuery(q []float64, rkey string) ([]float64, bool, error) {
	if len(q) != e.opt.L {
		return nil, false, fmt.Errorf("twinsearch: query length %d, engine built for L=%d", len(q), e.opt.L)
	}
	var key string
	if e.plan != nil {
		if rkey != "" {
			key = qcache.QueryKeyOf(rkey)
		} else {
			key = qcache.QueryKey(q)
		}
		if tq, ok := e.plan.Get(key); ok {
			return tq, true, nil
		}
	}
	if err := finiteQuery(q); err != nil {
		return nil, false, err
	}
	// With no normalization the transform is the identity, so when no
	// plan cache will retain tq past this call, serve q itself instead
	// of a defensive copy: the traversal treats tq as read-only and is
	// done with it before the caller regains control, and skipping the
	// copy keeps the uncached raw-mode query path allocation-free
	// (BenchmarkTraceDisabled).
	if e.plan == nil && e.ext.Mode() == series.NormNone {
		return q, false, nil
	}
	tq := e.ext.TransformQuery(q)
	if e.plan != nil {
		e.plan.Put(key, tq)
	}
	return tq, false, nil
}

// maxTailScan bounds the windows one lookup will verify to bring a
// cached answer up to the index: about 20 µs of verification at the
// few nanoseconds a rejected window costs, an order of magnitude under
// a traversal. An entry further behind is recomputed instead.
const maxTailScan = 4096

// carriesAppends reports whether path's cached answers outlive an
// Append: the range and top-k answers of a local TS-Index, which are a
// function of (query, parameter, window set) alone and therefore still
// exact for the windows they covered (see searchCached). Prefix
// answers are not (a tail scan of their own), nor are a cluster
// engine's, which is read-only: its entries are keyed by an epoch that
// stays 0 while it is open.
func (e *Engine) carriesAppends(path qcache.Path) bool {
	return e.sh != nil && (path == qcache.PathSearch || path == qcache.PathTopK)
}

// resultKey builds the result-cache key of one request, "" when the
// result cache is off: path, the parameter, the raw query bytes and
// — except where carriesAppends puts the version in the entry instead
// — the index epoch, read *before* the traversal starts, so that an
// answer computed against one index version can never be served for
// another.
func (e *Engine) resultKey(path qcache.Path, a float64, q []float64) string {
	switch {
	case e.res == nil:
		return ""
	case e.carriesAppends(path):
		return qcache.ResultKey(path, 0, a, 0, q)
	default:
		return qcache.ResultKey(path, e.Epoch(), a, 0, q)
	}
}

// searchCached serves one raw-query search from the result cache when
// enabled, under key (from resultKey). Invalidation is never a scan.
// For most paths it is a key mismatch: the key embeds the epoch. For
// the paths carriesAppends names the key survives appends and the
// entry records how many windows its answer covers; the index is
// append-only, so that answer is still exact for those windows, and a
// lookup that finds it behind verifies only the windows gained since
// — tq is the transformed query and a the path's parameter (eps or k)
// that scan needs — and stores the longer answer over the old one.
// Both the window count and the epoch are read before any work, so an
// answer is never tagged with a version newer than it saw. Errors
// (including cancellations) are never cached.
func (e *Engine) searchCached(ctx context.Context, path qcache.Path, key string, tq []float64, a float64, run func() (qcache.Result, error)) (qcache.Result, error) {
	sp := obs.SpanFrom(ctx)
	windows := 0 // epoch-keyed answers carry no version of their own
	if e.res == nil {
		sp.Set("result_cache", "off")
	} else {
		if e.carriesAppends(path) {
			windows = e.NumSubsequences()
		}
		if r, ok := e.res.GetCovering(key, windows, maxTailScan); ok {
			if r.Windows == windows {
				sp.Set("result_cache", "hit")
			} else {
				sp.Set("result_cache", "extended")
				sp.Set("tail_windows", windows-r.Windows)
				if path == qcache.PathTopK {
					// k rode in as a float64; past the window count every
					// k is the same query, and that much converts back.
					k := int(min(a, float64(windows)))
					r.Matches = core.ScanTailTopK(e.ext, tq, k, r.Windows, windows, r.Matches)
				} else {
					r.Matches = core.ScanTail(e.ext, tq, a, r.Windows, windows, r.Matches, nil)
				}
				r.Windows = windows
				e.res.Put(key, r)
			}
			sp.Set("results", len(r.Matches))
			return r, nil
		}
		sp.Set("result_cache", "miss")
	}
	r, err := run()
	if err != nil {
		return r, err
	}
	// The answer's size goes on the query's own span: the traversal
	// spans below it carry work counters, which stay zero on a hit.
	sp.Set("results", len(r.Matches))
	if e.res != nil {
		r.Windows = windows
		e.res.Put(key, r)
	}
	return r, nil
}

// Epoch returns the engine's index mutation counter: a monotonically
// increasing value bumped by every Append (and by Close), stable
// across searches and compactions. Any consumer caching answers can use
// "epoch changed" as the invalidation signal, and the engine's own
// result cache does for every answer it cannot bring up to date
// (SearchShorterCtx; everything on a cluster engine): their keys embed
// it. A local TS-Index engine's Search and SearchTopK entries are keyed
// without it and extended over the windows an Append gained instead —
// see searchCached. A cluster engine refuses Append, so its epoch reads
// 0 while it is open.
func (e *Engine) Epoch() uint64 { return e.epoch.Load() }

// CacheCounters is one serving-tier cache's observability snapshot.
type CacheCounters struct {
	Enabled bool   `json:"enabled"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	// Extended counts the hits served by bringing an entry from before
	// an Append up to date (result cache only; a share of Hits).
	Extended  uint64 `json:"extended,omitempty"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Bytes     int    `json:"bytes,omitempty"` // result cache only
}

// ServingStats is the engine's serving-tier observability snapshot:
// the index epoch, the appended windows every search still scans, and
// both caches' counters — the payload behind the server's /stats
// endpoint.
type ServingStats struct {
	Epoch uint64 `json:"epoch"`
	// TailWindows is how many appended windows no arena covers yet:
	// every search scans them until a compaction folds them in (see
	// Append). 0 on a cluster engine.
	TailWindows int           `json:"tail_windows"`
	Plan        CacheCounters `json:"plan_cache"`
	Result      CacheCounters `json:"result_cache"`
}

// ServingStats snapshots the serving-tier caches, the tail and the
// epoch. Cheap: counter loads plus one short mutex hold per cache
// stripe.
func (e *Engine) ServingStats() ServingStats {
	out := ServingStats{Epoch: e.Epoch()}
	if e.sh != nil {
		out.TailWindows = e.sh.TailWindows()
	}
	if e.plan != nil {
		s := e.plan.Stats()
		out.Plan = CacheCounters{Enabled: true, Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions, Entries: s.Entries}
	}
	if e.res != nil {
		s := e.res.Stats()
		out.Result = CacheCounters{Enabled: true, Hits: s.Hits, Misses: s.Misses, Extended: s.Extended, Evictions: s.Evictions, Entries: s.Entries, Bytes: s.Bytes}
	}
	return out
}

// searchPreparedCtx dispatches a validated, transformed query.
func (e *Engine) searchPreparedCtx(ctx context.Context, q []float64, eps float64) ([]Match, error) {
	if e.cl != nil {
		return e.cl.Search(ctx, q, eps)
	}
	return e.sh.SearchCtx(ctx, q, eps)
}

// PrepareQuery maps a raw-space query into the engine's normalized value
// space (identity under NormNone).
func (e *Engine) PrepareQuery(q []float64) []float64 {
	return e.ext.TransformQuery(q)
}

// SearchTopK returns the k nearest subsequences to q under Chebyshev
// distance (ascending), with exact distances filled in.
func (e *Engine) SearchTopK(q []float64, k int) ([]Match, error) {
	return e.SearchTopKCtx(context.Background(), q, k)
}

// SearchTopKCtx is SearchTopK honoring cancellation (see SearchCtx).
func (e *Engine) SearchTopKCtx(ctx context.Context, q []float64, k int) ([]Match, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	ctx, qo := e.beginQuery(ctx, qpTopK)
	key := e.resultKey(qcache.PathTopK, float64(k), q)
	tq, err := e.validateQueryCtx(ctx, q, 0, key)
	if err != nil {
		e.endQuery(qo, err)
		return nil, err
	}
	r, err := e.searchCached(ctx, qcache.PathTopK, key, tq, float64(k), func() (qcache.Result, error) {
		ms, err := e.searchTopKPreparedCtx(ctx, tq, k)
		return qcache.Result{Matches: ms}, err
	})
	e.endQuery(qo, err)
	return r.Matches, err
}

// searchTopKPreparedCtx dispatches a transformed top-k query to the
// engine's backing.
func (e *Engine) searchTopKPreparedCtx(ctx context.Context, tq []float64, k int) ([]Match, error) {
	if e.cl != nil {
		return e.cl.SearchTopK(ctx, tq, k)
	}
	return e.sh.SearchTopKCtx(ctx, tq, k, math.Inf(1))
}

// Subsequence returns a copy of the indexed (normalized) window at
// position p — useful for inspecting matches in the engine's value
// space.
func (e *Engine) Subsequence(p int) ([]float64, error) {
	// Compared as p > Len−L, not p+L > Len: a p near MaxInt would wrap
	// the sum negative and pass.
	if p < 0 || p > e.ext.Len()-e.opt.L {
		return nil, fmt.Errorf("twinsearch: position %d out of range", p)
	}
	return e.ext.ExtractCopy(p, e.opt.L), nil
}

// Norm returns the engine's normalization mode.
func (e *Engine) Norm() NormMode { return e.opt.Norm }

// Shards returns the number of index partitions the engine searches
// (1 for the single index).
func (e *Engine) Shards() int {
	if e.cl != nil {
		return e.cl.TotalShards()
	}
	return e.sh.NumShards()
}

// Cluster exposes the distributed coordinator behind an engine opened
// with Options.Topology (nil for every local engine) — internal/server
// reads it to report role and peer liveness.
func (e *Engine) Cluster() *cluster.Coordinator { return e.cl }

// Workers returns the size of the engine's query executor — the
// worker pool every sharded fan-out runs on (see Options.Workers).
func (e *Engine) Workers() int { return e.ex.Workers() }

// L returns the configured subsequence length.
func (e *Engine) L() int { return e.opt.L }

// SeriesLen returns the number of timestamps in the indexed series.
func (e *Engine) SeriesLen() int { return e.ext.Len() }

// NumSubsequences returns how many windows the engine indexes.
func (e *Engine) NumSubsequences() int {
	return series.NumSubsequences(e.ext.Len(), e.opt.L)
}

// MemoryBytes estimates the total footprint of the index structure —
// heap-resident plus file-mapped bytes. HeapBytes and MappedBytes
// report the two halves separately.
func (e *Engine) MemoryBytes() int {
	return e.HeapBytes() + e.MappedBytes()
}

// HeapBytes estimates the heap-resident bytes of the index structure:
// everything this process pays for exclusively. A mapped engine's flat
// arrays live in the page cache instead and appear under MappedBytes.
func (e *Engine) HeapBytes() int {
	if e.cl != nil {
		return 0 // a coordinator's nodes hold the index
	}
	return e.sh.MemoryBytes()
}

// MappedBytes reports the file-mapped bytes of the index structure:
// arena arrays served straight from an mmap'd saved index
// (Options.MMap). These pages are shared with other processes mapping
// the same file and reclaimable by the kernel, so they are accounted
// separately from HeapBytes. Appending keeps the mapping; the last
// shard leaves this figure when a compaction rebuilds it on the heap.
func (e *Engine) MappedBytes() int {
	if e.cl != nil {
		return 0
	}
	return e.sh.MappedBytes()
}

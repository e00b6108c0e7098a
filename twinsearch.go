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
	// normalization and verification-free merging. Cluster engines are read-only: Append and SaveIndex return
	// errors, and HeapBytes and MappedBytes are 0 (the nodes hold the
	// index). MMap, Prefetch and Shards are ignored: the saved index
	// fixed the partition, and each node opens its shards.
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

	// PlanCache has no effect. It stays only because bench/workload.go
	// and bench/ladder.go set it, and goes with the next change to
	// bench/.
	PlanCache int

	// ResultCacheBytes sizes the result cache, the engine's one cache:
	// whole answers keyed by (query bytes, parameter, search path),
	// bounded to this many bytes with LRU eviction. A hit returns the
	// cached matches — byte-identical to a fresh traversal — without
	// touching the index or normalizing the query. Invalidation is
	// structural, never a scan of the cache: every entry records how
	// many windows it covers at its query's length, and after an Append
	// a lookup verifies only the windows gained (past maxTailScan of
	// them it recomputes). 0 disables (default), negative selects
	// DefaultResultCacheBytes, positive is the byte bound. Every query
	// entry point consults it: Search, SearchTopK and their Ctx forms.
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

// check fills o's defaults and runs the O(1) checks every open path —
// Open, OpenSaved, OpenSavedFile with and without MMap — applies to its
// options and series; prepareSeries is the O(series) rest.
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
	return nil
}

// prepareSeries refuses a series holding a non-finite value and builds
// the extractor every open path serves data through. Every value must
// be finite: NaN compares false against every threshold, so a NaN window
// would silently match everything instead of nothing (and a saved
// index's structural checks, comparisons all, cannot see one either).
func prepareSeries(data []float64, norm NormMode) (*series.Extractor, error) {
	if i := nonFinite(data); i >= 0 {
		return nil, fmt.Errorf("twinsearch: non-finite value %v at position %d; clean or impute missing samples first", data[i], i)
	}
	return series.NewExtractor(data, norm), nil
}

// prepareDuring prepares data's series (prepareSeries) as a unit on ex
// while the caller runs open — the open's I/O, which does not need the
// prepared series. A refused series is the error whatever open
// returned, and what open made is then closed.
func prepareDuring[T io.Closer](ex *exec.Executor, data []float64, norm NormMode, open func() (T, error)) (*series.Extractor, T, error) {
	var ext *series.Extractor
	var extErr error
	prep := ex.NewGroup()
	prep.Go(func(*exec.Ctx) { ext, extErr = prepareSeries(data, norm) })
	v, err := open()
	prep.Wait()
	if extErr != nil {
		if err == nil {
			v.Close()
		}
		var zero T
		return nil, zero, extErr
	}
	return ext, v, err
}

// seriesShape is the part of a series a coordinator checks its nodes
// against, known before the series is prepared.
type seriesShape struct {
	n    int
	mode NormMode
}

func (s seriesShape) Len() int       { return s.n }
func (s seriesShape) Mode() NormMode { return s.mode }

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

	// res is the result cache (nil when disabled): whole answers keyed
	// by (query, parameter, path), each versioned by its window count
	// (see searchCached and Options.ResultCacheBytes).
	res *qcache.ResultCache

	// epoch counts Appends (see Epoch); no search or cache path reads it.
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

// DefaultResultCacheBytes is the result cache's size under a negative
// Options.ResultCacheBytes (and tsserve's flag default).
const DefaultResultCacheBytes = 32 << 20

// newEngine builds the common engine shell every open path shares
// around its extractor and executor: the result cache the options
// select and the observability set.
func newEngine(opt Options, ext *series.Extractor, ex *exec.Executor) *Engine {
	e := &Engine{opt: opt, ext: ext, ex: ex}
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
// mapped index region (Options.MMap) and the cluster coordinator's
// membership sweep and idle connections (Options.Topology). Heap-only
// engines close trivially. Close is idempotent, safe to race with
// itself, and every call after the first returns nil; searches,
// appends, and saves beginning after Close fail with ErrClosed. A
// search still in flight when Close lands is not protected — quiesce
// first (tsserve drains before closing).
func (e *Engine) Close() error {
	e.closeMu.Lock()
	defer e.closeMu.Unlock()
	if e.closed.Load() {
		return nil
	}
	e.closed.Store(true)
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

// Open builds an engine over data according to opt, its TS-Index at the
// paper's node capacities µc = 10 and Mc = 30. The slice is not copied
// for raw/per-subsequence modes and must not be modified afterwards.
// Every value must be finite — a NaN window would match every query —
// so a series holding NaN or ±Inf is refused.
func Open(data []float64, opt Options) (*Engine, error) {
	start := time.Now()
	if err := opt.check(data); err != nil {
		return nil, err
	}
	ex := exec.New(opt.Workers)
	if opt.Topology != "" {
		// The nodes are probed while the series is prepared: the
		// coordinator checks them against its length and norm only.
		ext, cl, err := prepareDuring(ex, data, opt.Norm, func() (*cluster.Coordinator, error) {
			topo, err := cluster.LoadTopology(opt.Topology)
			if err != nil {
				return nil, err
			}
			return cluster.OpenCoordinator(context.Background(), topo, seriesShape{len(data), opt.Norm}, opt.L, cluster.Options{
				Timeout: opt.ClusterTimeout, HedgeDelay: opt.ClusterHedge, RefreshInterval: opt.ClusterRefresh,
			})
		})
		if err != nil {
			return nil, err
		}
		e := newEngine(opt, ext, ex)
		e.cl = cl
		e.registerClusterGauges()
		e.registerIndexInfo(start)
		return e, nil
	}
	ext, err := prepareSeries(data, opt.Norm)
	if err != nil {
		return nil, err
	}
	e := newEngine(opt, ext, ex)
	e.sh, err = shard.Build(e.ext, shard.Config{
		Config: core.Config{L: opt.L},
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

// Search returns all subsequences whose Chebyshev distance to q is at
// most eps, ordered by start position. q is in the raw value space of
// the input series, with finite values and a length ℓ from 1 to L. A
// query shorter than L is answered by the same index — the first ℓ
// timestamps of every MBTS bound the first ℓ values of the windows
// beneath it — with the L − ℓ windows that exist only at length ℓ
// verified directly; it is refused under NormPerSubsequence, whose
// normalized windows have no such prefixes.
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
	var ms []Match
	err := e.checkQueryCtx(ctx, qpSearch, q, eps)
	if err == nil {
		ms, err = e.searchCached(ctx, qcache.PathSearch, q, eps, func(tq []float64) ([]Match, error) {
			return e.searchPreparedCtx(ctx, tq, eps)
		})
	}
	e.endQuery(qo, err)
	return ms, err
}

// checkQuery refuses, on the raw query, what path cannot answer: a
// negative or NaN threshold; a length outside 1…L for a range query, or
// other than L for top-k; a non-finite value; and a range query shorter
// than L under per-subsequence normalization, where z-normalizing a
// window's prefix is not a prefix of the normalized window, so the
// index's bounds do not truncate.
func (e *Engine) checkQuery(p qpath, q []float64, eps float64) error {
	if eps < 0 || math.IsNaN(eps) {
		return fmt.Errorf("twinsearch: invalid threshold %v", eps)
	}
	if n := len(q); n == 0 || n > e.opt.L || n != e.opt.L && p == qpTopK {
		return fmt.Errorf("twinsearch: query length %d, engine built for L=%d", n, e.opt.L)
	}
	if err := finiteQuery(q); err != nil {
		return err
	}
	if len(q) < e.opt.L && e.ext.Mode() == series.NormPerSubsequence {
		return errors.New("core: prefix queries are unsupported under per-subsequence normalization")
	}
	return nil
}

// prepare maps a checked raw query into the engine's value space, for
// the index to answer. Under NormNone the transform is the identity and
// q itself is served, not a copy: every search path treats the query as
// read-only and is done with it before the caller regains control, and
// skipping the copy keeps the uncached raw-mode query path
// allocation-free (BenchmarkTraceDisabled).
func (e *Engine) prepare(q []float64) []float64 {
	if e.ext.Mode() == series.NormNone {
		return q
	}
	return e.ext.TransformQuery(q)
}

// maxTailScan bounds the windows one lookup will verify to bring a
// cached answer up to the index: about 20 µs of verification at the
// few nanoseconds a rejected window costs, an order of magnitude under
// a traversal. An entry further behind is recomputed instead.
const maxTailScan = 4096

// resultKey builds the result-cache key of one request: path, the
// parameter and the raw query bytes. No index version: the entry
// carries its own (see searchCached).
func resultKey(path qcache.Path, a float64, q []float64) string {
	return qcache.ResultKey(path, 0, a, 0, q)
}

// searchCached answers one checked raw query q on path — from the
// result cache when it is on, else by run, which the index answers with
// the prepared query. a is the path's parameter (eps or k). A hit does
// no transform. Invalidation is never a scan: every entry records how
// many windows, at the query's length, its answer covers; the index is
// append-only, so that answer is still exact for those windows, and a
// lookup that finds it behind prepares the query, verifies only the
// windows gained since — a shorter query's at its own length, as its
// own tail scan does — and stores the longer answer
// over the old one. The window count is read before any work, so an
// answer is never tagged with a version newer than it saw. Errors
// (including cancellations) are never cached.
func (e *Engine) searchCached(ctx context.Context, path qcache.Path, q []float64, a float64, run func(tq []float64) ([]Match, error)) ([]Match, error) {
	sp := obs.SpanFrom(ctx)
	var key string
	windows := series.NumSubsequences(e.ext.Len(), len(q))
	if e.res == nil {
		sp.Set("result_cache", "off")
	} else {
		key = resultKey(path, a, q)
		if r, ok := e.res.GetCovering(key, windows, maxTailScan); ok {
			if r.Windows == windows {
				sp.Set("result_cache", "hit")
			} else {
				sp.Set("result_cache", "extended")
				tq := e.prepare(q)
				shard.Tail(sp, windows-r.Windows, func() (st core.Stats) {
					if path == qcache.PathTopK {
						// k rode in as a float64; past the window count every
						// k is the same query, and that much converts back.
						k := int(min(a, float64(windows)))
						r.Matches = core.ScanTailTopK(e.ext, tq, k, r.Windows, windows, r.Matches, &st)
					} else {
						r.Matches = core.ScanTail(e.ext, tq, a, r.Windows, windows, r.Matches, &st)
					}
					return st
				})
				r.Windows = windows
				e.res.Put(key, r)
			}
			sp.Set("results", len(r.Matches))
			return r.Matches, nil
		}
		sp.Set("result_cache", "miss")
	}
	ms, err := run(e.prepare(q))
	if err != nil {
		return nil, err
	}
	// The answer's size goes on the query's own span: the traversal
	// spans below it carry work counters, which stay zero on a hit.
	sp.Set("results", len(ms))
	if e.res != nil {
		e.res.Put(key, qcache.Result{Matches: ms, Windows: windows})
	}
	return ms, nil
}

// Epoch returns how many Appends the engine has taken: a monotonically
// increasing counter, stable across searches and compactions, that
// /append, /healthz, /stats and twinsearch_epoch report. Nothing in the
// engine reads it — the result cache versions each entry by its window
// count (see searchCached). A cluster engine refuses Append, so its
// epoch reads 0.
func (e *Engine) Epoch() uint64 { return e.epoch.Load() }

// CacheCounters is the result cache's observability snapshot.
type CacheCounters struct {
	Enabled bool   `json:"enabled"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	// Extended counts the hits served by bringing an entry from before
	// an Append up to date (a share of Hits).
	Extended  uint64 `json:"extended,omitempty"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Bytes     int    `json:"bytes,omitempty"`
}

// ServingStats is the engine's serving-tier observability snapshot:
// the index epoch, the appended windows every search still scans, and
// the result cache's counters — the payload behind the server's /stats
// endpoint.
type ServingStats struct {
	Epoch uint64 `json:"epoch"`
	// TailWindows is how many appended windows no arena covers yet:
	// every search scans them until a compaction folds them in (see
	// Append). 0 on a cluster engine.
	TailWindows int           `json:"tail_windows"`
	Result      CacheCounters `json:"result_cache"`
	// Plan is always zero. It stays only because bench/drive.go reads
	// it (the qcache.plan_hit_ratio row), and goes with the next change
	// to bench/.
	Plan CacheCounters `json:"-"`
}

// ServingStats snapshots the result cache, the tail and the epoch.
// Cheap: counter loads plus one short mutex hold per cache stripe.
func (e *Engine) ServingStats() ServingStats {
	out := ServingStats{Epoch: e.Epoch()}
	if e.sh != nil {
		out.TailWindows = e.sh.TailWindows()
	}
	if e.res != nil {
		s := e.res.Stats()
		out.Result = CacheCounters{Enabled: true, Hits: s.Hits, Misses: s.Misses, Extended: s.Extended, Evictions: s.Evictions, Entries: s.Entries, Bytes: s.Bytes}
	}
	return out
}

// searchPreparedCtx dispatches a checked, prepared query.
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
	var ms []Match
	err := e.checkQueryCtx(ctx, qpTopK, q, 0)
	if err == nil {
		ms, err = e.searchCached(ctx, qcache.PathTopK, q, float64(k), func(tq []float64) ([]Match, error) {
			return e.searchTopKPreparedCtx(ctx, tq, k)
		})
	}
	e.endQuery(qo, err)
	return ms, err
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

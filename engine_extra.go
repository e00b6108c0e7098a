package twinsearch

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	"twinsearch/internal/arena"
	"twinsearch/internal/core"
	"twinsearch/internal/exec"
	"twinsearch/internal/qcache"
	"twinsearch/internal/shard"
)

// ErrPersistUnsupported is returned by SaveIndex for methods other than
// TS-Index.
var ErrPersistUnsupported = errors.New("twinsearch: index persistence requires MethodTSIndex")

// SaveIndex serializes a built TS-Index so a later process can reopen it
// against the same series without paying construction again (see
// OpenSaved). Only MethodTSIndex engines support it. The frozen arenas
// go to disk as they are — the flat arrays, so loading is a few
// sequential reads per shard: a single index as its one shard's bare
// TSFZ stream, a partitioned one as the TSSH container around its
// segments. OpenSaved also accepts the pointer-tree formats older
// versions wrote.
func (e *Engine) SaveIndex(w io.Writer) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if e.opt.Method != MethodTSIndex {
		return ErrPersistUnsupported
	}
	if e.cl != nil {
		return errors.New("twinsearch: a cluster-backed engine serves an already-saved index; save from the process that built it")
	}
	if e.sh.NumShards() == 1 {
		_, err := e.sh.Shard(0).WriteTo(w)
		return err
	}
	_, err := e.sh.WriteTo(w)
	return err
}

// SaveIndexFile is SaveIndex to a file path, via a temp file in the
// same directory renamed over the target. The rename makes the save
// atomic (a crash never leaves a half-written index) and — critically
// for engines opened with Options.MMap — never truncates the inode the
// engine's own arenas may be mapped from: saving over the file you
// mapped reads the old inode and atomically swaps in the new one.
func (e *Engine) SaveIndexFile(path string) error {
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("twinsearch: %w", err)
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := e.SaveIndex(f); err != nil {
		return fail(err)
	}
	// CreateTemp opens 0600; give the index the permissions os.Create
	// used to (other processes mapping the shared copy need read).
	if err := f.Chmod(0o644); err != nil {
		return fail(fmt.Errorf("twinsearch: %w", err))
	}
	// Flush to stable storage before the rename commits the name: a
	// crash must never atomically install an unwritten file.
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("twinsearch: %w", err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("twinsearch: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("twinsearch: %w", err)
	}
	return nil
}

// OpenSaved reconstructs a TS-Index engine from a stream produced by
// SaveIndex. data must be the same series the index was built over, and
// opt must request MethodTSIndex with the same L and normalization; the
// stream's recorded parameters are authoritative and validated. The
// stream format decides whether the engine comes back sharded — a
// sharded save reopens sharded (with its saved partition) regardless of
// opt.Shards, and a single-index save reopens unsharded. All four
// magics are sniffed: the frozen formats load their flat arrays
// directly; the pointer-tree formats older versions wrote are frozen
// after loading.
func OpenSaved(data []float64, r io.Reader, opt Options) (*Engine, error) {
	if err := opt.fill(); err != nil {
		return nil, err
	}
	if opt.Method != MethodTSIndex {
		return nil, ErrPersistUnsupported
	}
	e := newEngine(data, opt)

	br := bufio.NewReader(r)
	magic, err := br.Peek(len(shard.Magic))
	if err != nil {
		return nil, fmt.Errorf("twinsearch: reading saved index: %w", err)
	}
	switch string(magic) {
	case shard.Magic:
		e.sh, err = shard.Load(br, e.ext, e.ex)
	case core.FrozenMagic:
		var fz *core.Frozen
		if fz, err = core.LoadFrozen(br, e.ext); err == nil {
			e.sh, err = shard.Single(fz, e.ex)
		}
	default:
		var ix *core.Index
		if ix, err = core.Load(br, e.ext); err == nil {
			e.sh, err = shard.Single(ix.Freeze(), e.ex)
		}
	}
	if err != nil {
		return nil, err
	}
	if e.sh.L() != opt.L {
		return nil, fmt.Errorf("twinsearch: saved index has L=%d, options request L=%d", e.sh.L(), opt.L)
	}
	return e, nil
}

// OpenSavedFile is OpenSaved from a file path. With Options.MMap it is
// the zero-copy open: the file is memory-mapped, the header validated,
// and every arena array pointed directly at the mapping — O(header)
// allocation however large the index, demand paging instead of an
// up-front read, and one physical copy shared across processes.
// Streams that predate the aligned formats (TSIX, TSFZ v1, TSSH v1/v2)
// and platforms without mmap fall back to the copy loader
// transparently; answers are byte-identical either way. Call
// Engine.Close when done — mapped engines hold the region until then.
func OpenSavedFile(data []float64, path string, opt Options) (*Engine, error) {
	if opt.MMap {
		eng, err := openSavedMapped(data, path, opt)
		if err == nil || !errors.Is(err, errNotMappable) {
			return eng, err
		}
		// Legacy stream or platform: the copy path serves it.
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("twinsearch: %w", err)
	}
	defer f.Close()
	return OpenSaved(data, f, opt)
}

// errNotMappable marks saved indexes the zero-copy path cannot serve
// (pre-alignment formats, big-endian hosts, platforms without mmap);
// OpenSavedFile falls back to the copy loader for them.
var errNotMappable = errors.New("twinsearch: saved index cannot be mapped in place")

// openSavedMapped is the Options.MMap half of OpenSavedFile.
func openSavedMapped(data []float64, path string, opt Options) (*Engine, error) {
	if err := opt.fill(); err != nil {
		return nil, err
	}
	if opt.Method != MethodTSIndex {
		return nil, ErrPersistUnsupported
	}
	if !arena.MapSupported() || !arena.LittleEndianHost() {
		return nil, errNotMappable
	}
	ar, err := arena.Map(path)
	if err != nil {
		// Runtime mapping failures (FUSE/network mounts without mmap,
		// mapping limits) fall back to the copy loader like the
		// compile-time checks above: the copy path either serves the
		// file or reports the real problem (e.g. file not found).
		return nil, fmt.Errorf("%w: %v", errNotMappable, err)
	}
	eng, err := engineFromArena(data, ar, opt)
	if err != nil {
		ar.Close()
		return nil, err
	}
	if opt.Prefetch {
		// Warm the mapping before the first query pays the page-fault
		// tail: advise the kernel, then touch a bounded prefix.
		ar.Prefetch(0)
	}
	return eng, nil
}

// engineFromArena builds an engine whose index arrays are views into
// ar. On success the engine owns ar (released by Engine.Close); on
// error the caller still owns it.
func engineFromArena(data []float64, ar *arena.Arena, opt Options) (*Engine, error) {
	buf := ar.Bytes()
	if len(buf) < 6 {
		return nil, fmt.Errorf("twinsearch: saved index truncated (%d bytes)", len(buf))
	}
	magic, version := string(buf[:4]), binary.LittleEndian.Uint16(buf[4:])
	e := newEngine(data, opt)
	var err error
	switch {
	case magic == shard.Magic && version == shard.PersistVersion:
		e.sh, err = shard.OpenArena(ar, e.ext, e.ex)
	case magic == core.FrozenMagic && version == core.FrozenVersion:
		var fz *core.Frozen
		if fz, _, err = core.FrozenFromArena(ar, 0, e.ext); err == nil {
			e.sh, err = shard.Single(fz, e.ex)
		}
	case magic == shard.Magic || magic == core.FrozenMagic || magic == core.IndexMagic:
		return nil, errNotMappable // recognized, but a pre-alignment version
	default:
		return nil, fmt.Errorf("twinsearch: saved index has unknown magic %q", buf[:4])
	}
	if err != nil {
		return nil, err
	}
	if e.sh.L() != opt.L {
		return nil, fmt.Errorf("twinsearch: saved index has L=%d, options request L=%d", e.sh.L(), opt.L)
	}
	e.ar = ar
	return e, nil
}

// SearchShorter answers a twin query whose length is at most L using
// the existing TS-Index (no rebuild): node bounds are truncated to the
// query length — sound by the paper's closure property, see
// core.Frozen.SearchPrefix — and the few trailing windows that exist only at
// the shorter length are scanned directly. Exact. Requires
// MethodTSIndex and a normalization other than NormPerSubsequence.
func (e *Engine) SearchShorter(q []float64, eps float64) ([]Match, error) {
	return e.SearchShorterCtx(context.Background(), q, eps)
}

// SearchShorterCtx is SearchShorter honoring cancellation (see
// SearchCtx) — the serving tier routes admitted prefix queries through
// it so queued work dies with the request.
func (e *Engine) SearchShorterCtx(ctx context.Context, q []float64, eps float64) ([]Match, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if e.opt.Method != MethodTSIndex {
		return nil, errors.New("twinsearch: SearchShorter requires MethodTSIndex")
	}
	// NaN slips past a plain eps < 0 check (NaN < 0 is false) and would
	// poison the early-abandoning comparisons; validate like Search.
	if eps < 0 || math.IsNaN(eps) {
		return nil, fmt.Errorf("twinsearch: invalid threshold %v", eps)
	}
	// So would a NaN in the query: it compares false against every
	// truncated bound and every window, and matches them all.
	if len(q) == 0 {
		return nil, errors.New("twinsearch: empty query")
	}
	if i := nonFinite(q); i >= 0 {
		return nil, fmt.Errorf("twinsearch: non-finite query value %v at position %d", q[i], i)
	}
	ctx, qo := e.beginQuery(ctx, qpPrefix)
	key := e.resultKey(qcache.PathPrefix, eps, 0, q)
	r, err := e.searchCached(ctx, qcache.PathPrefix, key, nil, eps, func() (qcache.Result, error) {
		ms, err := e.searchShorterPreparedCtx(ctx, e.ext.TransformQuery(q), eps)
		return qcache.Result{Matches: ms}, err
	})
	e.endQuery(qo, err)
	return r.Matches, err
}

// searchShorterPreparedCtx dispatches a transformed prefix query to the
// engine's TS-Index backing.
func (e *Engine) searchShorterPreparedCtx(ctx context.Context, tq []float64, eps float64) ([]Match, error) {
	if e.cl != nil {
		return e.cl.SearchPrefix(ctx, tq, eps)
	}
	return e.sh.SearchPrefixCtx(ctx, tq, eps)
}

// SearchApprox probes at most leafBudget nearest leaves and returns a
// (possibly incomplete) subset of the twins, in microseconds. On a
// sharded engine the budget is one shared atomic allowance drawn by
// every shard's traversal, so it flows to whichever shards hold the
// nearest leaves. Requires MethodTSIndex and a positive leafBudget;
// Search is the exact counterpart.
func (e *Engine) SearchApprox(q []float64, eps float64, leafBudget int) ([]Match, error) {
	return e.SearchApproxCtx(context.Background(), q, eps, leafBudget)
}

// SearchApproxCtx is SearchApprox honoring cancellation (see
// SearchCtx) — the serving tier routes admitted approximate queries
// through it so queued work dies with the request. Note that on a
// sharded engine the probed subset is scheduling-dependent, so a cached
// answer reproduces one valid traversal, not necessarily the one a
// fresh call would take.
func (e *Engine) SearchApproxCtx(ctx context.Context, q []float64, eps float64, leafBudget int) ([]Match, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if e.opt.Method != MethodTSIndex {
		return nil, errors.New("twinsearch: SearchApprox requires MethodTSIndex")
	}
	if eps < 0 || math.IsNaN(eps) {
		return nil, fmt.Errorf("twinsearch: invalid threshold %v", eps)
	}
	if leafBudget <= 0 {
		return nil, fmt.Errorf("twinsearch: leaf budget %d; SearchApprox needs a positive number of leaf probes", leafBudget)
	}
	ctx, qo := e.beginQuery(ctx, qpApprox)
	key := e.resultKey(qcache.PathApprox, eps, float64(leafBudget), q)
	tq, err := e.validateQueryCtx(ctx, q, eps, key)
	if err != nil {
		e.endQuery(qo, err)
		return nil, err
	}
	r, err := e.searchCached(ctx, qcache.PathApprox, key, tq, eps, func() (qcache.Result, error) {
		ms, err := e.searchApproxPreparedCtx(ctx, tq, eps, leafBudget)
		return qcache.Result{Matches: ms}, err
	})
	e.endQuery(qo, err)
	return r.Matches, err
}

// searchApproxPreparedCtx dispatches a transformed approximate query to
// the engine's TS-Index backing.
func (e *Engine) searchApproxPreparedCtx(ctx context.Context, tq []float64, eps float64, leafBudget int) ([]Match, error) {
	if e.cl != nil {
		ms, _, err := e.cl.SearchApprox(ctx, tq, eps, leafBudget)
		return ms, err
	}
	ms, _, err := e.sh.SearchApproxCtx(ctx, tq, eps, leafBudget)
	return ms, err
}

// Append ingests new trailing values into the engine's series and
// indexes every window the growth completes — streaming support, an
// extension beyond the paper's static setting. Requires MethodTSIndex
// (the only index with incremental insertion). Under NormGlobal the
// appended values are normalized with the frozen original (mean, σ);
// see series.Extractor.Append. Do not call concurrently with searches.
// Under raw/per-subsequence modes the engine extends the slice passed
// to Open (reallocating when its capacity is exhausted); callers must
// not retain independent views past its original length.
//
// Every value must be finite, for Open's reason — a NaN window matches
// every query — and a call carrying one is refused whole: nothing is
// appended, indexed or invalidated.
//
// Searches run over frozen arenas, so insertion works on the owning
// shard's mutable pointer tree (shard.Index.Insert thaws it from the
// arena on the first Append and keeps it resident — a streaming engine
// holds both forms). The arena is not recompiled here: Append only
// marks it stale, and the next search that traverses re-freezes once,
// so appending value by value costs the insertions alone however the
// appends are batched.
//
// Windows already indexed are untouched — the normalization basis is
// frozen, or per window — which is what lets the result cache keep its
// Search and SearchTopK entries across an Append and verify only the
// windows gained (see searchCached); a search served that way does not
// traverse, so it does not pay the re-freeze either. Everything else
// cached is invalidated by the epoch bump.
func (e *Engine) Append(values ...float64) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if e.opt.Method != MethodTSIndex {
		return errors.New("twinsearch: Append requires MethodTSIndex")
	}
	if e.cl != nil {
		return errors.New("twinsearch: a cluster-backed engine is read-only; append at the process that owns the index")
	}
	if len(values) == 0 {
		return nil
	}
	if i := nonFinite(values); i >= 0 {
		return fmt.Errorf("twinsearch: non-finite appended value %v at position %d; clean or impute missing samples first", values[i], i)
	}
	oldLen := e.ext.Len()
	e.ext.Append(values...)
	// Windows [oldLen-L+1, newLen-L] are newly complete.
	for p := max(oldLen-e.opt.L+1, 0); p+e.opt.L <= e.ext.Len(); p++ {
		e.sh.Insert(p)
	}
	// The index content changed: bump the epoch before returning so no
	// consumer that observed the Append can build an epoch-bearing
	// result-cache key an older answer satisfies (the server's /append
	// handler relies on the bump landing before its response is
	// written). The entries keyed without it see the new window count.
	e.epoch.Add(1)
	return nil
}

type BatchResult struct {
	Query   int
	Matches []Match
	Err     error
}

// SearchBatch answers many queries concurrently over one engine —
// searches are read-only, so they parallelize perfectly (the direction
// ParIS/MESSI take iSAX, applied here at the workload level). On
// TS-Index engines the whole batch runs as one executor group of
// (shard, subtree) work units, and each unit traverses its subtree
// ONCE for the entire batch: a frame of the descent is (node, active
// query set), so every node's bounds stream through the distance
// kernels once per unit instead of once per query (see
// core.Frozen.SearchStatsBatchFrom). Validation and query
// transformation happen once per query, up front. Results arrive
// indexed by query position, identical to len(queries) calls to
// Search. parallelism ≤ 0 uses the engine's executor (see
// Options.Workers); a positive value caps the batch to a dedicated
// pool of exactly that many workers.
func (e *Engine) SearchBatch(queries [][]float64, eps float64, parallelism int) []BatchResult {
	out, valid, tqs := e.validateBatch(queries, eps, nil)
	if len(valid) == 0 {
		return out
	}
	if e.cl != nil {
		e.clusterBatch(out, valid, tqs, func(tq []float64) ([]Match, error) {
			return e.cl.Search(context.Background(), tq, eps)
		})
		return out
	}
	ex := e.ex
	if parallelism > 0 {
		// More workers than queries would idle (each query's units can
		// already spread over the pool); the cap also keeps exec.New's
		// per-worker state proportional to real work.
		ex = exec.New(min(parallelism, len(queries)))
	}
	g := ex.NewGroup()
	if e.sh != nil {
		p := e.sh.QueueSearchBatch(g, tqs, eps)
		g.Wait()
		ms, _ := p.Resolve()
		for bi, i := range valid {
			out[i].Matches = ms[bi]
		}
		return out
	}
	// The scan methods have no tree to batch over; per-query tasks.
	for bi, i := range valid {
		tq := tqs[bi]
		g.Go(func(*exec.Ctx) {
			out[i].Matches, out[i].Err = e.searchPreparedCtx(context.Background(), tq, eps)
		})
	}
	g.Wait()
	return out
}

// validateBatch opens a batch call: out has one entry per query, every
// query that fails validateQuery's checks (or all of them, when the
// engine is closed or refuse is non-nil) already carries its error, and
// valid/tqs list the positions and transformed forms of the rest — the
// traversals see valid queries only.
func (e *Engine) validateBatch(queries [][]float64, eps float64, refuse error) (out []BatchResult, valid []int, tqs [][]float64) {
	out = make([]BatchResult, len(queries))
	if e.closed.Load() {
		refuse = ErrClosed
	}
	for i, q := range queries {
		out[i].Query = i
		if refuse != nil {
			out[i].Err = refuse
			continue
		}
		tq, err := e.validateQuery(q, eps)
		if err != nil {
			out[i].Err = err
			continue
		}
		valid = append(valid, i)
		tqs = append(tqs, tq)
	}
	return out, valid, tqs
}

// clusterBatch runs one coordinator call per valid query. Cluster
// fan-out is network-bound: plain per-query goroutines, each fanning
// across the nodes with its own timeouts. (A batch RPC that ships the
// whole query set to each node in one round trip is the noted
// follow-on.)
func (e *Engine) clusterBatch(out []BatchResult, valid []int, tqs [][]float64, run func(tq []float64) ([]Match, error)) {
	var wg sync.WaitGroup
	for bi, i := range valid {
		wg.Add(1)
		//tsvet:ignore cluster fan-out is network-bound, not executor work
		go func(i int, tq []float64) {
			defer wg.Done()
			out[i].Matches, out[i].Err = run(tq)
		}(i, tqs[bi])
	}
	wg.Wait()
}

// SearchTopKBatch answers many top-k queries over one engine with a
// single batched fan-out: each (shard, subtree) work unit descends
// once for the whole batch, every query keeps its own cross-unit
// pruning bound, and candidate windows are extracted once per leaf for
// all queries alive there. Results arrive indexed by query position,
// identical to len(queries) calls to SearchTopK — a query SearchTopK
// would refuse carries the same error. Requires MethodTSIndex, like
// SearchTopK.
func (e *Engine) SearchTopKBatch(queries [][]float64, k int) []BatchResult {
	var refuse error
	if e.opt.Method != MethodTSIndex {
		refuse = ErrTopKUnsupported
	}
	out, valid, tqs := e.validateBatch(queries, 0, refuse)
	if len(valid) == 0 {
		return out
	}
	if e.cl != nil {
		e.clusterBatch(out, valid, tqs, func(tq []float64) ([]Match, error) {
			return e.cl.SearchTopK(context.Background(), tq, k)
		})
		return out
	}
	ms := e.sh.SearchTopKBatch(tqs, k)
	for bi, i := range valid {
		out[i].Matches = ms[bi]
	}
	return out
}

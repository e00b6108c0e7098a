package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"twinsearch"
	"twinsearch/internal/arena"
	"twinsearch/internal/cluster"
	"twinsearch/internal/core"
	"twinsearch/internal/exec"
	"twinsearch/internal/obs"
	"twinsearch/internal/series"
	"twinsearch/internal/server"
	"twinsearch/internal/shard"
)

// The layer ladder: the traced run replays the workload's first
// ladderOps queries, one client, at every layer boundary from outside —
// socket, handler, engine, the engine's backing, the backing's children
// — and records one span per call from here, in bench/. Rung k is the
// parent of rung k+1 for the same query_id, so a layer's self time is its
// span minus its child's, and the self times of one query telescope to
// its http span.
//
// Every cache-carrying rung (http, server, engine) has its own Engine
// over the same saved index (mmap: one physical copy) so a replay never
// hits an answer another rung cached; each rung still sees the queries in
// the same order, so all of them hit and miss on the same queries. A
// query the engine answers from its result cache has no spans below the
// engine — the real system made no such call. Rung order is shuffled per
// query (from the seed), so drift, and the warm caches the first rung to
// see a query leaves the others, land on all rungs equally. Ladder engines
// run their fan-out on one worker so a sharded rung's children sum to it.

// span is one line of results/trace-<workload>.jsonl.
type span struct {
	Workload string `json:"workload"`
	QueryID  int    `json:"query_id"`
	Layer    string `json:"layer"`
	StartNs  int64  `json:"start_ns"` // since the ladder started
	EndNs    int64  `json:"end_ns"`
	Parent   string `json:"parent"` // the layer of the parent span; "" at the root
}

// rung is one layer boundary the ladder calls into.
type rung struct {
	layer  string
	parent string
	// record: append a span per call. The control rungs (a second http
	// rung, the cache-less engines) keep only their durations.
	record bool
	// belowCache: not called for a query the engine serves from cache.
	belowCache bool
	call       func(i int) (t0, t1 time.Time, err error)
	us         []float64 // duration per op, NaN where not called
}

type ladder struct {
	r       *run
	ctx     context.Context
	ext     *series.Extractor
	ops     []op
	repeat  []bool      // the op's (kind, query) occurred earlier: a cache hit
	tq      [][]float64 // the op's query in the engine's value space
	rungs   []*rung
	spans   []span
	closers []func()

	engine  *twinsearch.Engine // the engine rung's
	handler http.Handler       // the server rung's

	// Side measurements taken beside the rung calls, per op.
	decodeUs, encodeUs, mergeUs []float64
	reqBytes, respBytes         []float64
	backStats, leafStats        []core.Stats
	rt                          *countingTransport
	rpcBase, reqBase, respBase  int64
}

func (ld *ladder) close() {
	for i := len(ld.closers) - 1; i >= 0; i-- {
		ld.closers[i]()
	}
}

// countingTransport counts the coordinator rung's RPCs and their bytes.
type countingTransport struct {
	base                          http.RoundTripper
	rpcs, req, resp, unsuccessful atomic.Int64
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.rpcs.Add(1)
	if req.ContentLength > 0 {
		t.req.Add(req.ContentLength)
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.unsuccessful.Add(1)
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		t.unsuccessful.Add(1)
	}
	resp.Body = countingBody{resp.Body, &t.resp}
	return resp, nil
}

// ladderEngine opens one more engine over the workload's saved index the
// way the ladder wants it: mapped and prefetched, fan-out on one worker.
func (ld *ladder) ladderEngine(cached bool) (*twinsearch.Engine, error) {
	r := ld.r
	opt := servingOptions()
	if !cached {
		opt.PlanCache, opt.ResultCacheBytes = 0, 0
	}
	opt.MMap, opt.Prefetch, opt.Workers = true, true, 1
	var eng *twinsearch.Engine
	var err error
	if r.w.backing == "cluster" {
		opt.Topology = r.topologyPath()
		eng, err = twinsearch.Open(r.data, opt)
	} else {
		t0 := time.Now()
		eng, err = twinsearch.OpenSavedFile(r.data, r.w.saved(r), opt)
		r.observe("persist.open_mmap_ms", msSince(t0))
	}
	if err != nil {
		return nil, err
	}
	ld.closers = append(ld.closers, func() { _ = eng.Close() })
	return eng, nil
}

func (ld *ladder) mapSaved() (*arena.Arena, error) {
	ar, err := arena.Map(ld.r.w.saved(ld.r))
	if err != nil {
		return nil, err
	}
	ld.closers = append(ld.closers, func() { _ = ar.Close() })
	return ar, nil
}

// httpRung serves a fresh engine on a loopback socket and posts to it.
func (ld *ladder) httpRung(record bool) (*rung, error) {
	eng, err := ld.ladderEngine(true)
	if err != nil {
		return nil, err
	}
	srv, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	srv.serve(server.NewWithConfig(eng, server.Config{}))
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	ld.closers = append(ld.closers, func() { tr.CloseIdleConnections(); srv.stop() })
	hc := &http.Client{Transport: tr}
	var buf bytes.Buffer
	return &rung{layer: "http", record: record, call: func(i int) (time.Time, time.Time, error) {
		o := ld.ops[i]
		t0 := time.Now()
		status, err := post(hc, srv.url+opPath[o.kind], ld.r.bodies[o.kind][o.q], &buf)
		t1 := time.Now()
		if msg := check(o, status, err, buf.Bytes(), 1); msg != "" {
			return t0, t1, fmt.Errorf("http rung: %s", msg)
		}
		return t0, t1, nil
	}}, nil
}

// serverRung calls the handler directly, no socket. The request decode
// the handler is about to do is timed beside it on the same bytes.
func (ld *ladder) serverRung() (*rung, error) {
	eng, err := ld.ladderEngine(true)
	if err != nil {
		return nil, err
	}
	ld.handler = server.NewWithConfig(eng, server.Config{})
	return &rung{layer: "server", parent: "http", record: true, call: func(i int) (time.Time, time.Time, error) {
		o := ld.ops[i]
		body := ld.r.bodies[o.kind][o.q]
		var sr searchRequest
		td := time.Now()
		err := json.NewDecoder(bytes.NewReader(body)).Decode(&sr)
		ld.decodeUs[i] = usSince(td)
		if err != nil {
			return td, td, err
		}
		req := httptest.NewRequest(http.MethodPost, opPath[o.kind], bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		ld.handler.ServeHTTP(rec, req)
		t1 := time.Now()
		ld.reqBytes[i], ld.respBytes[i] = float64(len(body)), float64(rec.Body.Len())
		if msg := check(o, rec.Code, nil, rec.Body.Bytes(), 1); msg != "" {
			return t0, t1, fmt.Errorf("server rung: %s", msg)
		}
		return t0, t1, nil
	}}, nil
}

// engineCall is one raw-query engine call of the op's kind, optionally
// under a forced root span as ?trace=1 installs.
func (ld *ladder) engineCall(eng *twinsearch.Engine, o op, forced bool) (time.Time, time.Time, []twinsearch.Match, error) {
	ctx := ld.ctx
	var tr *obs.Trace
	t0 := time.Now()
	if forced {
		tr = obs.NewTrace("bench")
		ctx = obs.WithSpan(ctx, tr.Root)
	}
	var ms []twinsearch.Match
	var err error
	if o.kind == opTopK {
		ms, err = eng.SearchTopKCtx(ctx, ld.r.queries[o.q], topK)
	} else {
		ms, err = eng.SearchCtx(ctx, ld.r.queries[o.q], ld.r.w.eps)
	}
	if forced {
		tr.Finish()
	}
	return t0, time.Now(), ms, err
}

// engineRung calls the engine with the raw query. The response encode the
// handler would do next is timed beside it on the same answer.
func (ld *ladder) engineRung() (*rung, error) {
	eng, err := ld.ladderEngine(true)
	if err != nil {
		return nil, err
	}
	ld.engine = eng
	var buf bytes.Buffer
	return &rung{layer: "engine", parent: "server", record: true, call: func(i int) (time.Time, time.Time, error) {
		t0, t1, ms, err := ld.engineCall(eng, ld.ops[i], false)
		if err != nil {
			return t0, t1, err
		}
		buf.Reset()
		te := time.Now()
		err = json.NewEncoder(&buf).Encode(toBody(ms))
		ld.encodeUs[i] = usSince(te)
		return t0, t1, err
	}}, nil
}

// controlEngineRung is the engine rung without caches, with or without a
// forced trace: the pair prices tracing, and against the cached engine's
// misses it prices the cache's miss path.
func (ld *ladder) controlEngineRung(forced bool) (*rung, error) {
	eng, err := ld.ladderEngine(false)
	if err != nil {
		return nil, err
	}
	return &rung{layer: "engine", call: func(i int) (time.Time, time.Time, error) {
		t0, t1, _, err := ld.engineCall(eng, ld.ops[i], forced)
		return t0, t1, err
	}}, nil
}

// coreRung traverses the single frozen index mapped from the saved file.
func (ld *ladder) coreRung() (*rung, error) {
	ar, err := ld.mapSaved()
	if err != nil {
		return nil, err
	}
	fz, _, err := core.FrozenFromArena(ar, 0, ld.ext)
	if err != nil {
		return nil, err
	}
	return &rung{layer: "core", parent: "engine", record: true, belowCache: true, call: func(i int) (time.Time, time.Time, error) {
		t0 := time.Now()
		if ld.ops[i].kind == opTopK {
			fz.SearchTopK(ld.tq[i], topK)
			return t0, time.Now(), nil
		}
		_, st := fz.SearchStats(ld.tq[i], ld.r.w.eps)
		t1 := time.Now()
		ld.backStats[i], ld.leafStats[i] = st, st
		return t0, t1, nil
	}}, nil
}

// shardRungs are the sharded index on a one-worker executor (so its
// children sum to it) and, below it, every shard's whole tree searched in
// turn; the merge of the per-shard lists is timed beside the latter.
func (ld *ladder) shardRungs(parent string, withChild bool) ([]*rung, error) {
	ar, err := ld.mapSaved()
	if err != nil {
		return nil, err
	}
	ix, err := shard.OpenArena(ar, ld.ext, exec.New(1))
	if err != nil {
		return nil, err
	}
	top := &rung{layer: "shard", parent: parent, record: true, belowCache: true, call: func(i int) (time.Time, time.Time, error) {
		t0 := time.Now()
		if ld.ops[i].kind == opTopK {
			_, err := ix.SearchTopKCtx(ld.ctx, ld.tq[i], topK, math.Inf(1))
			return t0, time.Now(), err
		}
		_, st, err := ix.SearchStatsCtx(ld.ctx, ld.tq[i], ld.r.w.eps)
		t1 := time.Now()
		if parent == "engine" {
			ld.backStats[i] = st
		} else {
			ld.leafStats[i] = st
		}
		return t0, t1, err
	}}
	if !withChild {
		return []*rung{top}, nil
	}
	per := make([][]series.Match, ix.NumShards())
	child := &rung{layer: "core", parent: "shard", record: true, belowCache: true, call: func(i int) (time.Time, time.Time, error) {
		t0 := time.Now()
		if ld.ops[i].kind == opTopK {
			for s := range per {
				ix.Shard(s).SearchTopK(ld.tq[i], topK)
			}
			return t0, time.Now(), nil
		}
		var sum core.Stats
		for s := range per {
			var st core.Stats
			per[s], st = ix.Shard(s).SearchStats(ld.tq[i], ld.r.w.eps)
			sum = shard.AddStats(sum, st)
		}
		t1 := time.Now()
		ld.leafStats[i] = sum
		tm := time.Now()
		shard.MergeByStart(per)
		ld.mergeUs[i] = usSince(tm)
		return t0, t1, nil
	}}
	return []*rung{top, child}, nil
}

// clusterRung is a coordinator of its own over the running shard nodes,
// behind a counting transport and without the background sweep, so its
// RPC counts are exactly the queries'.
func (ld *ladder) clusterRung(s *served) (*rung, error) {
	var addrs [4]string
	for i, n := range s.nodes {
		addrs[i] = n.srv.url
	}
	base := &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 16}
	ld.rt = &countingTransport{base: base}
	coord, err := cluster.OpenCoordinator(ld.ctx, clusterTopology(ld.r.shardedPath(), addrs), ld.ext, seqLen,
		cluster.Options{Client: &http.Client{Transport: ld.rt}, RefreshInterval: -1})
	if err != nil {
		return nil, err
	}
	ld.closers = append(ld.closers, func() { _ = coord.Close(); base.CloseIdleConnections() })
	ld.rpcBase, ld.reqBase, ld.respBase = ld.rt.rpcs.Load(), ld.rt.req.Load(), ld.rt.resp.Load()
	return &rung{layer: "cluster", parent: "engine", record: true, belowCache: true, call: func(i int) (time.Time, time.Time, error) {
		t0 := time.Now()
		if ld.ops[i].kind == opTopK {
			_, err := coord.SearchTopK(ld.ctx, ld.tq[i], topK)
			return t0, time.Now(), err
		}
		_, st, err := coord.SearchStats(ld.ctx, ld.tq[i], ld.r.w.eps)
		t1 := time.Now()
		ld.backStats[i] = st
		return t0, t1, err
	}}, nil
}

// newLadder opens every rung of the workload's chain.
func newLadder(r *run, s *served) (ld *ladder, err error) {
	ld = &ladder{r: r, ctx: context.Background(), ext: series.NewExtractor(r.data, series.NormGlobal)}
	defer func() {
		if err != nil {
			ld.close()
		}
	}()
	seen := map[op]bool{}
	for _, o := range r.ops[0] {
		if o.kind == opAppend {
			continue
		}
		if len(ld.ops) == r.cfg.ladderOps {
			break
		}
		ld.ops = append(ld.ops, o)
		ld.repeat = append(ld.repeat, seen[o])
		seen[o] = true
		ld.tq = append(ld.tq, ld.ext.TransformQuery(r.queries[o.q]))
	}
	n := len(ld.ops)
	for _, p := range []*[]float64{&ld.decodeUs, &ld.encodeUs, &ld.mergeUs, &ld.reqBytes, &ld.respBytes} {
		*p = nans(n)
	}
	ld.backStats, ld.leafStats = make([]core.Stats, n), make([]core.Stats, n)

	// The order here is the index order of the rung* constants below.
	for _, open := range []func() (*rung, error){
		func() (*rung, error) { return ld.httpRung(true) },
		func() (*rung, error) { return ld.httpRung(false) },
		ld.serverRung,
		ld.engineRung,
		func() (*rung, error) { return ld.controlEngineRung(false) },
		func() (*rung, error) { return ld.controlEngineRung(true) },
	} {
		g, err := open()
		if err != nil {
			return nil, err
		}
		ld.rungs = append(ld.rungs, g)
	}
	var below []*rung
	switch r.w.backing {
	case "core":
		var g *rung
		g, err = ld.coreRung()
		below = []*rung{g}
	case "shard":
		below, err = ld.shardRungs("engine", true)
	case "cluster":
		var g *rung
		if g, err = ld.clusterRung(s); err == nil {
			below, err = ld.shardRungs("cluster", false)
			below = append([]*rung{g}, below...)
		}
	}
	if err != nil {
		return nil, err
	}
	ld.rungs = append(ld.rungs, below...)
	for _, g := range ld.rungs {
		g.us = nans(n)
	}
	return ld, nil
}

func nans(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.NaN()
	}
	return xs
}

// Indices of the fixed rungs in ladder.rungs; the backing's follow.
const (
	rungHTTP = iota
	rungHTTPControl
	rungServer
	rungEngine
	rungPlain  // cache-less engine
	rungForced // cache-less engine under a forced trace
	rungBacking
	rungChild
)

// replay runs every op at every rung, in an order shuffled per op.
func (ld *ladder) replay() error {
	rng := rand.New(rand.NewSource(ld.r.cfg.seed))
	order := make([]int, len(ld.rungs))
	for k := range order {
		order[k] = k
	}
	start := time.Now()
	for i := range ld.ops {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, k := range order {
			g := ld.rungs[k]
			if g.belowCache && ld.repeat[i] {
				continue
			}
			t0, t1, err := g.call(i)
			if err != nil {
				return fmt.Errorf("ladder: query %d at %s: %w", i, g.layer, err)
			}
			g.us[i] = float64(t1.Sub(t0)) / 1e3
			if g.record {
				ld.spans = append(ld.spans, span{Workload: ld.r.w.name, QueryID: i, Layer: g.layer,
					StartNs: int64(t0.Sub(start)), EndNs: int64(t1.Sub(start)), Parent: g.parent})
			}
		}
	}
	return nil
}

// of masks a rung's durations down to the ops of one kind.
func (ld *ladder) of(us []float64, kind opKind) []float64 {
	out := nans(len(us))
	for i, o := range ld.ops {
		if o.kind == kind {
			out[i] = us[i]
		}
	}
	return out
}

// writeTrace writes the spans kept in memory to trace-<workload>.jsonl
// beside the result file.
func (ld *ladder) writeTrace() error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range ld.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(filepath.Dir(ld.r.cfg.out), "trace-"+ld.r.w.name+".jsonl"), buf.Bytes(), 0o644)
}

// allocsPer counts heap allocations per call of fn over n calls.
func allocsPer(n int, fn func(i int)) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// extras are the engine and server measurements that need their own
// passes after the replay: the hit path (the same query again),
// allocations per query on the workload's continuing op sequence, and
// on pool workloads the append and the re-freeze it forces.
func (ld *ladder) extras() error {
	r := ld.r
	// The most recent searches are still cached whatever was evicted.
	var hit []float64
	for i := max(0, len(ld.ops)-len(ld.ops)/10); i < len(ld.ops); i++ {
		if ld.ops[i].kind != opSearch {
			continue
		}
		t0, t1, _, err := ld.engineCall(ld.engine, ld.ops[i], false)
		if err != nil {
			return err
		}
		hit = append(hit, float64(t1.Sub(t0))/1e3)
	}
	r.layer["engine.hit_us"] = med(hit, "us")

	// Ops the ladder has not replayed yet, so distinct workloads still miss.
	var next []op
	for _, o := range r.ops[0][min(len(r.ops[0]), len(ld.ops)+len(ld.ops)/8):] {
		if o.kind != opAppend && len(next) < max(1, len(ld.ops)/10) {
			next = append(next, o)
		}
	}
	var callErr error
	r.set("engine.allocs_per_query", allocsPer(len(next), func(i int) {
		if _, _, _, err := ld.engineCall(ld.engine, next[i], false); err != nil {
			callErr = err
		}
	}))
	r.set("server.allocs_per_query", allocsPer(len(next), func(i int) {
		o := next[i]
		rec := httptest.NewRecorder()
		ld.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, opPath[o.kind], bytes.NewReader(r.bodies[o.kind][o.q])))
		if rec.Code != http.StatusOK {
			callErr = fmt.Errorf("server allocs pass: status %d", rec.Code)
		}
	}))
	if callErr != nil || !r.w.pool {
		return callErr
	}

	// Append and re-freeze on a copy-opened engine of its own: each round
	// appends one pool query, then times the search that must re-freeze
	// against a search of the then-fresh index.
	eng, err := twinsearch.OpenSavedFile(r.data, r.singlePath(), servingOptions())
	if err != nil {
		return err
	}
	defer eng.Close()
	var appendUs, stalled, fresh []float64
	rounds := min(16, len(r.queries)/3)
	for j := 0; j < rounds; j++ {
		t := time.Now()
		if err := eng.Append(r.queries[3*j]...); err != nil {
			return err
		}
		appendUs = append(appendUs, usSince(t))
		for k, dst := range []*[]float64{&stalled, &fresh} {
			t = time.Now()
			if _, err := eng.SearchCtx(ld.ctx, r.queries[3*j+1+k], r.w.eps); err != nil {
				return err
			}
			*dst = append(*dst, msSince(t))
		}
	}
	r.layer["engine.append_us"] = med(appendUs, "us")
	r.layer["engine.refreeze_ms"] = pairedDiff(stalled, fresh, "ms")
	return nil
}

// report turns the replay into the per-layer metrics.
func (ld *ladder) report() {
	r, g := ld.r, ld.rungs
	us := func(idx int, kind opKind) []float64 {
		if idx >= len(g) {
			return nil
		}
		return ld.of(g[idx].us, kind)
	}
	medOf := func(xs []float64) metric { return med(present(xs), "us") }
	// overheadRatio is 1 + (a-b)/median(b), or 1 when a-b is within noise.
	overheadRatio := func(diff metric, b []float64) float64 {
		if m := median(present(b)); m > 0 {
			return 1 + diff.Value/m
		}
		return 1
	}

	r.layer["http.search_us"] = medOf(us(rungHTTP, opSearch))
	r.layer["http.transport_us"] = pairedDiff(g[rungHTTP].us, g[rungServer].us, "us")
	r.set("bench.trace_overhead_ratio", overheadRatio(pairedDiff(g[rungHTTP].us, g[rungHTTPControl].us, "us"), g[rungHTTPControl].us))

	r.layer["server.handler_us"] = medOf(us(rungServer, opSearch))
	r.layer["server.self_us"] = pairedDiff(g[rungServer].us, g[rungEngine].us, "us")
	r.layer["server.json_decode_us"] = medOf(ld.decodeUs)
	r.layer["server.json_encode_us"] = medOf(ld.encodeUs)
	r.set("server.req_bytes_per_query", mean(present(ld.reqBytes)))
	r.set("server.resp_bytes_per_query", mean(present(ld.respBytes)))

	r.layer["engine.search_us"] = medOf(us(rungEngine, opSearch))
	r.layer["engine.topk_us"] = medOf(us(rungEngine, opTopK))
	r.layer["engine.self_us"] = pairedDiff(g[rungEngine].us, g[rungBacking].us, "us")
	misses := nans(len(ld.ops))
	for i, o := range ld.ops {
		if !ld.repeat[i] && o.kind == opSearch {
			misses[i] = g[rungEngine].us[i]
		}
	}
	r.layer["engine.miss_us"] = medOf(misses)
	r.layer["engine.cache_miss_tax_us"] = pairedDiff(misses, g[rungPlain].us, "us")
	forced := pairedDiff(g[rungForced].us, g[rungPlain].us, "us")
	r.layer["obs.forced_trace_overhead_us"] = forced
	r.set("obs.trace_overhead_ratio", overheadRatio(forced, g[rungPlain].us))

	// Which rung is which layer depends on the workload's chain.
	var coreRung, shardRung, clusterRung, leaf int
	switch r.w.backing {
	case "core":
		coreRung, leaf = rungBacking, rungBacking
	case "shard":
		shardRung, coreRung, leaf = rungBacking, rungChild, rungChild
		r.layer["shard.per_shard_sum_us"] = medOf(us(rungChild, opSearch))
		r.layer["shard.fanout_us"] = pairedDiff(us(rungBacking, opSearch), us(rungChild, opSearch), "us")
		r.layer["shard.merge_us"] = medOf(ld.mergeUs)
	case "cluster":
		clusterRung, shardRung, leaf = rungBacking, rungChild, rungChild
		r.layer["cluster.search_us"] = medOf(us(clusterRung, opSearch))
		r.layer["cluster.topk_us"] = medOf(us(clusterRung, opTopK))
		r.layer["cluster.rpc_overhead_us"] = pairedDiff(g[clusterRung].us, g[shardRung].us, "us")
		called := float64(len(present(g[clusterRung].us)))
		r.set("cluster.rpcs_per_query", float64(ld.rt.rpcs.Load()-ld.rpcBase)/called)
		r.set("cluster.req_bytes_per_query", float64(ld.rt.req.Load()-ld.reqBase)/called)
		r.set("cluster.resp_bytes_per_query", float64(ld.rt.resp.Load()-ld.respBase)/called)
		r.set("cluster.failovers", float64(ld.rt.unsuccessful.Load()))
	}
	if coreRung > 0 {
		r.layer["core.search_us"] = medOf(us(coreRung, opSearch))
		r.layer["core.topk_us"] = medOf(us(coreRung, opTopK))
	}
	if shardRung > 0 {
		r.layer["shard.search_us"] = medOf(us(shardRung, opSearch))
	}

	// Exact traversal counts per /search the engine did not serve from
	// cache, as the engine's backing reports them.
	var st, leafSt core.Stats
	var searched, leafUs float64
	for i, o := range ld.ops {
		if o.kind == opSearch && !ld.repeat[i] {
			st, leafSt = shard.AddStats(st, ld.backStats[i]), shard.AddStats(leafSt, ld.leafStats[i])
			leafUs += g[leaf].us[i]
			searched++
		}
	}
	if searched == 0 {
		return
	}
	per := func(n int) float64 { return float64(n) / searched }
	r.set("core.nodes_visited_per_query", per(st.NodesVisited))
	r.set("core.nodes_pruned_per_query", per(st.NodesPruned))
	r.set("core.leaves_per_query", per(st.LeavesReached))
	r.set("core.candidates_per_query", per(st.Candidates))
	r.set("core.abandons_per_query", per(st.Abandons))
	r.set("core.results_per_query", per(st.Results))
	r.set("core.prune_ratio", ratio(uint64(st.NodesPruned), uint64(st.NodesVisited)))
	r.set("core.candidates_per_result", ratio(uint64(st.Candidates), uint64(st.Results)))
	if leafSt.NodesVisited > 0 {
		r.set("core.ns_per_node", leafUs*1e3/float64(leafSt.NodesVisited))
	}
	// One bound evaluation per node visited, two bound rows of L float64s
	// each; computed, not measured.
	r.set("kernel.bytes_per_query", per(st.NodesVisited)*2*seqLen*8)
	r.set("kernel.est_us_per_query", per(st.NodesVisited)*seqLen*r.layer["kernel.abandon_ns_per_lane"].Value/1e3)
	r.set("series.est_verify_us_per_query", (per(st.Results)*r.layer["series.verify_hit_ns"].Value+
		per(st.Candidates-st.Results)*r.layer["series.verify_miss_ns"].Value)/1e3)
}

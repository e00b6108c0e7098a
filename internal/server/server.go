// Package server exposes a loaded twin-search engine over HTTP with a
// small JSON API — the shape in which a monitoring or exploration
// service would actually consume the index:
//
//	GET  /healthz               → {"status":"ok", ...engine info}
//	GET  /stats                 → serving-tier counters (caches, admission, epoch)
//	POST /search                → {"query":[...], "eps":0.3}
//	POST /topk                  → {"query":[...], "k":5}
//	POST /append                → {"values":[...]}   (TS-Index only)
//	GET  /subsequence?start=N   → the indexed window, normalized
//
// Search runs concurrently (the underlying engines are read-safe);
// Append is serialized against searches by the handler's RW-mutex.
// With Config.MaxInflight set, the query endpoints run behind
// admission control: a bounded queue in front of the executor fan-out,
// shedding with 429 + Retry-After past the limit (see admission.go).
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"twinsearch"
	"twinsearch/internal/mbts/kernel"
	"twinsearch/internal/obs"
	"twinsearch/internal/wire"
)

// Handler is an http.Handler serving one engine.
type Handler struct {
	mu    sync.RWMutex
	eng   *twinsearch.Engine
	mux   *http.ServeMux
	adm   *admission
	drain atomic.Bool
	start time.Time
}

// New wraps an engine with no admission control (every request runs);
// see NewWithConfig.
func New(eng *twinsearch.Engine) *Handler {
	return NewWithConfig(eng, Config{})
}

// NewWithConfig wraps an engine with the given serving-tier config.
func NewWithConfig(eng *twinsearch.Engine, cfg Config) *Handler {
	h := &Handler{eng: eng, mux: http.NewServeMux(), adm: newAdmission(cfg), start: time.Now()}
	h.mux.HandleFunc("/healthz", h.health)
	h.mux.HandleFunc("/stats", h.stats)
	h.mux.HandleFunc("/metrics", h.metrics)
	h.mux.HandleFunc("/debug/slowlog", h.slowlog)
	h.mux.HandleFunc("/search", h.search)
	h.mux.HandleFunc("/topk", h.topk)
	h.mux.HandleFunc("/append", h.append)
	h.mux.HandleFunc("/subsequence", h.subsequence)
	// The serving tier owns admission and drain state, so their gauges
	// register here rather than in the engine; scrape-time funcs mean
	// the registry always reports the live values.
	reg := eng.Metrics()
	reg.GaugeFunc("twinsearch_admission_inflight", func() float64 {
		return float64(h.adm.snapshot().Inflight)
	})
	reg.GaugeFunc("twinsearch_admission_queue_depth", func() float64 {
		return float64(h.adm.snapshot().QueueDepth)
	})
	reg.CounterFunc("twinsearch_admission_shed_total", func() float64 {
		return float64(h.adm.snapshot().Shed)
	})
	reg.GaugeFunc("twinsearch_draining", func() float64 {
		if h.drain.Load() {
			return 1
		}
		return 0
	})
	return h
}

// BeginDrain makes every subsequent query answer 503 while /healthz
// keeps working: call it when graceful shutdown starts, so in-flight
// requests finish, load balancers see the drain, and no new query can
// race Engine.Close's unmap.
func (h *Handler) BeginDrain() { h.drain.Store(true) }

// drainExempt lists the observability endpoints that keep answering
// while the server drains — operators read them precisely when the
// server is unhappy.
func drainExempt(path string) bool {
	switch path {
	case "/healthz", "/stats", "/metrics", "/debug/slowlog":
		return true
	}
	return false
}

// ServeHTTP implements http.Handler. Drain is checked before
// admission: a draining server answers 503 without consuming queue
// capacity, and only the observability endpoints stay open.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.drain.Load() && !drainExempt(r.URL.Path) {
		wire.WriteError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	h.mux.ServeHTTP(w, r)
}

// admit runs the request through admission control, writing the shed
// or cancellation response itself when the request may not proceed.
// On true the caller must defer h.adm.release().
func (h *Handler) admit(w http.ResponseWriter, r *http.Request) bool {
	err := h.adm.acquire(r.Context())
	switch {
	case err == nil:
		return true
	case errors.Is(err, errOverloaded):
		w.Header().Set("Retry-After", strconv.Itoa(int((h.adm.retryAfter+time.Second-1)/time.Second)))
		wire.WriteError(w, http.StatusTooManyRequests, err)
	default:
		// The client's context ended while queued; it is gone, but
		// finish the exchange coherently.
		wire.WriteError(w, http.StatusServiceUnavailable, err)
	}
	return false
}

var errDraining = errors.New("server is draining for shutdown")

func (h *Handler) health(w http.ResponseWriter, r *http.Request) {
	h.mu.RLock()
	status := "ok"
	if h.drain.Load() {
		status = "draining"
	}
	role := "standalone"
	body := map[string]interface{}{
		"status":     status,
		"method":     "TS-Index", // the engine's one method; kept for the wire shape
		"norm":       h.eng.Norm().String(),
		"l":          h.eng.L(),
		"series_len": h.eng.SeriesLen(),
		"windows":    h.eng.NumSubsequences(),
		// memory_bytes is the whole index footprint; heap_bytes and
		// mapped_bytes split it into pages this process pays for
		// exclusively versus pages served from an mmap'd saved index
		// (shared across processes, reclaimable by the kernel).
		"memory_bytes": h.eng.MemoryBytes(),
		"heap_bytes":   h.eng.HeapBytes(),
		"mapped_bytes": h.eng.MappedBytes(),
		"shards":       h.eng.Shards(),
		// The engine's query executor is shared by every request this
		// server handles — every sharded fan-out's units schedule onto
		// these workers.
		"workers": h.eng.Workers(),
		// How many appends the index has taken; consumers caching
		// answers can invalidate on "epoch changed". /stats has the full
		// serving-tier counter set.
		"epoch": h.eng.Epoch(),
		// Which distance-kernel implementation dispatch selected at
		// startup (scalar, portable, or avx2) — the first thing to check
		// when two machines disagree on throughput.
		"kernel":         kernel.Active(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"uptime_seconds": int64(time.Since(h.start).Seconds()),
	}
	cl := h.eng.Cluster()
	h.mu.RUnlock()
	if cl != nil {
		// Coordinator engines report the cluster view: which node owns
		// which shards and each node's cached liveness — maintained by
		// the background membership sweep, never probed inline, so this
		// endpoint answers in microseconds however many peers exist.
		// Each row's checked_at says how fresh its fact is.
		role = "coordinator"
		body["nodes"] = cl.Health()
		body["replicas"] = cl.Replicas()
	}
	body["role"] = role
	wire.WriteJSON(w, http.StatusOK, body)
}

// stats serves the serving-tier observability snapshot: result-cache
// hit/miss/extended/eviction counters, admission queue depth and shed count,
// the index epoch and the appended windows every search scans.
// Drain-exempt like /healthz — operators read it precisely while the
// server is unhappy.
func (h *Handler) stats(w http.ResponseWriter, r *http.Request) {
	h.mu.RLock()
	ss := h.eng.ServingStats()
	h.mu.RUnlock()
	wire.WriteJSON(w, http.StatusOK, map[string]interface{}{
		"epoch":        ss.Epoch,
		"tail_windows": ss.TailWindows,
		"result_cache": ss.Result,
		"admission":    h.adm.snapshot(),
		"draining":     h.drain.Load(),
	})
}

// metrics serves the engine's registry in Prometheus text exposition
// format. Drain-exempt.
func (h *Handler) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = h.eng.Metrics().WritePrometheus(w)
}

// slowlog serves the slow-query ring buffer, newest first, each entry
// carrying the query's full span tree. Drain-exempt. Empty (or
// disabled: -slowlog-size 0) logs answer {"entries":[]}.
func (h *Handler) slowlog(w http.ResponseWriter, r *http.Request) {
	entries := h.eng.SlowLog().Snapshot()
	if entries == nil {
		entries = []obs.SlowEntry{}
	}
	wire.WriteJSON(w, http.StatusOK, map[string]interface{}{"entries": entries})
}

// traceWanted reports whether the request forces a trace (?trace=1).
func traceWanted(r *http.Request) bool {
	if r.URL.RawQuery == "" {
		return false // the common case: skip building the values map
	}
	v := r.URL.Query().Get("trace")
	return v == "1" || v == "true"
}

type searchRequest struct {
	Query []float64 `json:"query"`
	Eps   float64   `json:"eps"`
}

type matchBody struct {
	Start int      `json:"start"`
	Dist  *float64 `json:"dist,omitempty"` // only when computed
}

type searchResponse struct {
	Count   int         `json:"count"`
	Matches []matchBody `json:"matches"`
	// Trace is the query's span tree, present only when the request
	// forced one with ?trace=1. On cluster topologies it is the stitched
	// cross-node tree: coordinator spans with each node's subtree
	// grafted under the replica attempt that won.
	Trace *obs.Span `json:"trace,omitempty"`
}

func toBody(ms []twinsearch.Match) searchResponse {
	out := searchResponse{Count: len(ms), Matches: make([]matchBody, len(ms))}
	for i, m := range ms {
		out.Matches[i] = matchBody{Start: m.Start}
		if m.Dist >= 0 {
			d := m.Dist
			out.Matches[i].Dist = &d
		}
	}
	return out
}

func (h *Handler) search(w http.ResponseWriter, r *http.Request) {
	var req searchRequest
	h.serveQuery(w, r, "http /search", &req, wire.Fields{Query: &req.Query, Eps: &req.Eps},
		func(ctx context.Context) ([]twinsearch.Match, error) {
			return h.eng.SearchCtx(ctx, req.Query, req.Eps)
		})
}

func (h *Handler) topk(w http.ResponseWriter, r *http.Request) {
	var req topkRequest
	h.serveQuery(w, r, "http /topk", &req, wire.Fields{Query: &req.Query, K: &req.K},
		func(ctx context.Context) ([]twinsearch.Match, error) {
			return h.eng.SearchTopKCtx(ctx, req.Query, req.K)
		})
}

// serveQuery is the one query endpoint: read the body into req (f
// names its fields, see wire.ReadRequest), pass admission, run the
// engine call under the read lock, write the answer.
func (h *Handler) serveQuery(w http.ResponseWriter, r *http.Request, name string, req any, f wire.Fields,
	run func(context.Context) ([]twinsearch.Match, error)) {
	if !wire.ReadRequest(w, r, req, f, h.eng.L()) {
		return
	}
	// A forced trace (?trace=1) is created before admission so the time
	// spent queued shows up as an "admission" span.
	ctx := r.Context()
	var tr *obs.Trace
	var asp *obs.Span
	if traceWanted(r) {
		tr = obs.NewTrace(name)
		ctx = obs.WithSpan(ctx, tr.Root)
		asp = tr.Root.StartChild("admission")
	}
	ok := h.admit(w, r)
	asp.End()
	if !ok {
		return
	}
	defer h.adm.release()
	// r.Context() flows into the fan-out: a client that disconnects (or
	// a proxy that times out) cancels the remaining work units instead
	// of burning executor time on an unwanted answer.
	h.mu.RLock()
	ms, err := run(ctx)
	h.mu.RUnlock()
	if err != nil {
		wire.WriteError(w, searchStatus(err), err)
		return
	}
	if tr == nil && wire.WriteAnswer(w, ms) {
		return
	}
	body := toBody(ms)
	if tr != nil {
		tr.Finish()
		body.Trace = tr.Root
	}
	wire.WriteJSON(w, http.StatusOK, body)
}

// searchStatus maps engine errors to HTTP: context endings and
// unreachable cluster nodes are the service's unavailability (503),
// everything else is the client's request being refused (400).
func searchStatus(err error) int {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, twinsearch.ErrClosed) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

type topkRequest struct {
	Query []float64 `json:"query"`
	K     int       `json:"k"`
}

type appendRequest struct {
	Values []float64 `json:"values"`
}

func (h *Handler) append(w http.ResponseWriter, r *http.Request) {
	var req appendRequest
	if !wire.ReadRequest(w, r, &req, wire.Fields{Values: &req.Values}, h.eng.L()) {
		return
	}
	// The append and the epoch it reports are read under one write
	// lock, so no query runs between them. By the time any client sees
	// this response, no pre-append cached result can be served as it
	// stood: its window count is short of the series', and the lookup
	// makes up the difference.
	h.mu.Lock()
	err := h.eng.Append(req.Values...)
	n := h.eng.SeriesLen()
	epoch := h.eng.Epoch()
	h.mu.Unlock()
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, err)
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]interface{}{"series_len": n, "epoch": epoch})
}

func (h *Handler) subsequence(w http.ResponseWriter, r *http.Request) {
	start, err := strconv.Atoi(r.URL.Query().Get("start"))
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad start: %w", err))
		return
	}
	h.mu.RLock()
	sub, err := h.eng.Subsequence(start)
	h.mu.RUnlock()
	if err != nil {
		wire.WriteError(w, http.StatusBadRequest, err)
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]interface{}{"start": start, "values": sub})
}

package cluster

// The shard RPC's server half: the HTTP face of one cluster node, which
// serves its assigned shards of a saved index (Node) to the coordinator.
// GET /healthz answers NodeHealth as JSON; GET StreamPath is upgraded
// to a stream (wire.go). Queries arrive pre-transformed (the coordinator
// normalizes once) and answers keep internal/shard's contract, so the
// coordinator's merges reproduce the single-engine answer bit for bit.
// A coordinator that gives up (timeout, lost hedge, death) closes its
// stream, which cancels the node-side fan-out instead of leaving it to
// burn executor time. tsserve's node role serves this handler; it lives
// here so both halves of the protocol share one package.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"twinsearch/internal/core"
	"twinsearch/internal/obs"
	"twinsearch/internal/series"
	"twinsearch/internal/wire"
)

// NodeRPC serves one cluster node's shard RPC. It implements
// http.Handler.
type NodeRPC struct {
	n     *Node
	mux   *http.ServeMux
	drain atomic.Bool

	inflight atomic.Int64  // stream requests being answered
	quit     chan struct{} // closed by BeginDrain
	// hook (tests only) stands in for answering q; answer builds q's envelope.
	hook func(ctx context.Context, q *Request, answer func() []byte) []byte
}

// NewNodeRPC wraps a node in its RPC handler.
func NewNodeRPC(n *Node) *NodeRPC {
	h := &NodeRPC{n: n, mux: http.NewServeMux(), quit: make(chan struct{})}
	h.mux.HandleFunc("/healthz", h.health)
	h.mux.HandleFunc(StreamPath, h.stream)
	return h
}

// BeginDrain starts the graceful-shutdown window, /healthz still
// answering: idle streams close, a new one is refused 503, and a
// request on an open one gets a 503 envelope.
func (h *NodeRPC) BeginDrain() {
	if !h.drain.Swap(true) {
		close(h.quit)
	}
}

// Drained waits until BeginDrain has run and no stream request is in
// flight, or until ctx ends: http.Server.Shutdown does not wait for the
// streams (hijacked connections), and their queries read the arenas.
func (h *NodeRPC) Drained(ctx context.Context) error {
	for !h.drain.Load() || h.inflight.Load() > 0 {
		select {
		case <-time.After(time.Millisecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// ServeHTTP implements http.Handler.
func (h *NodeRPC) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.drain.Load() && r.URL.Path != "/healthz" {
		wire.WriteError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	h.mux.ServeHTTP(w, r)
}

var errDraining = errors.New("server is draining for shutdown")

func (h *NodeRPC) health(w http.ResponseWriter, r *http.Request) {
	hd := h.n.Health()
	if h.drain.Load() {
		hd.Status = "draining"
	}
	wire.WriteJSON(w, http.StatusOK, hd)
}

// stream upgrades the connection and answers its requests in order. Its
// reader reads ahead to the next request, so the stream's end — the
// coordinator hung up — cancels the query in flight.
func (h *NodeRPC) stream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet || !strings.EqualFold(r.Header.Get("Upgrade"), StreamProtocol) {
		w.Header().Set("Upgrade", StreamProtocol)
		wire.WriteError(w, http.StatusUpgradeRequired, fmt.Errorf("the shard RPC is a stream: GET %s with Upgrade: %s", StreamPath, StreamProtocol))
		return
	}
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		wire.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	_ = conn.SetDeadline(time.Time{}) // the server's were the upgrade request's
	ctx, hangUp := context.WithCancel(r.Context())
	reqs := make(chan []byte) // the reader's request bodies; nil: one past the size limit
	defer func() {            // stop the reader, and wait for it
		hangUp()
		conn.Close()
		for range reqs {
		}
	}()
	//tsvet:ignore the stream's reader waits on its socket, not on a CPU executor worker
	go func() {
		defer close(reqs)
		defer hangUp()
		var hdr [4]byte
		for {
			if _, err := io.ReadFull(brw.Reader, hdr[:]); err != nil {
				return
			}
			n := int64(le.Uint32(hdr[:]))
			lr := io.LimitedReader{R: brw.Reader, N: n}
			body, err := wire.ReadBody(&lr, n, nil) // nil only past the limit
			if body != nil && (err != nil || lr.N > 0) {
				return // the stream ended inside the request
			}
			select {
			case reqs <- body:
			case <-ctx.Done():
				return
			}
			if body == nil {
				return // the next request's start is unknown
			}
		}
	}()
	out := []byte("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + StreamProtocol + "\r\n\r\n")
	for quit := h.quit; ; {
		if _, err := conn.Write(out); err != nil {
			return
		}
		if cap(out) > 1<<20 {
			out = nil // a huge answer's buffer goes
		}
		var body []byte
		var ok bool
		select {
		case body, ok = <-reqs:
		case <-quit:
		}
		if !ok {
			return // the stream ended, or was idle when the drain began
		}
		q, err := ParseRequest(body) // nil (past the limit) is refused 413 below
		switch {
		case body == nil:
			out = appendRefusal(out[:0], http.StatusRequestEntityTooLarge, fmt.Errorf("bad request body: %w", &http.MaxBytesError{Limit: wire.MaxBodyBytes}))
		case err != nil:
			out = appendRefusal(out[:0], http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		default:
			if out = h.respond(ctx, &q, out[:0]); h.drain.Load() {
				quit = nil // busy when the drain began: later requests get 503s
			}
		}
	}
}

// respond appends q's answer envelope to out, or a 503 envelope once
// the node drains.
func (h *NodeRPC) respond(ctx context.Context, q *Request, out []byte) []byte {
	// Counted before the drain is read, which Drained reads first.
	h.inflight.Add(1)
	defer h.inflight.Add(-1)
	if h.drain.Load() {
		return appendRefusal(out, http.StatusServiceUnavailable, errDraining)
	}
	if h.hook != nil {
		q := *q
		return h.hook(ctx, &q, func() []byte { return h.answer(ctx, &q, out) })
	}
	return h.answer(ctx, q, out)
}

// answer runs q and appends its answer envelope to out, or a refusal's:
// 400 for parameters the node refuses, 503 when the caller hung up.
func (h *NodeRPC) answer(ctx context.Context, q *Request, out []byte) []byte {
	tr := (*obs.Trace)(nil)
	if q.Trace {
		// The node's own trace: the shard layer annotates its root, and
		// the finished subtree (StartUs relative to this node's trace
		// start) rides back in the answer.
		tr = obs.NewTrace("node:" + h.n.Name)
		ctx = obs.WithSpan(ctx, tr.Root)
	}
	a, err := h.run(ctx, q)
	if err == nil && tr != nil {
		tr.Finish()
		a.Trace, err = json.Marshal(tr.Root)
	}
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return appendRefusal(out, http.StatusServiceUnavailable, err)
	case err != nil:
		return appendRefusal(out, http.StatusBadRequest, err)
	}
	out = a.AppendFrame(append(out, make([]byte, 8)...))
	le.PutUint32(out, http.StatusOK)
	le.PutUint32(out[4:], uint32(len(out)-8))
	return out
}

// run answers q on the node's shards once screen has passed it.
func (h *NodeRPC) run(ctx context.Context, q *Request) (a Answer, err error) {
	sub := h.n.Sub
	if err = screen(q, sub.L(), sub.Extractor().Mode()); err != nil {
		return a, err
	}
	var st core.Stats
	switch q.Kind {
	case KindSearch:
		a.Matches, st, err = sub.SearchStatsCtx(ctx, q.Query, q.Eps)
		a.Stats = &st
	case KindTopK:
		a.Matches, err = sub.SearchTopKCtx(ctx, q.Query, q.K, q.Bound)
	}
	return a, err
}

// screen refuses at the door what the shard layer assumes valid: it
// panics on a query length it cannot answer (its callers validate) —
// a range query's outside 1…L, a top-k query's other than L — a
// shorter query's bounds do not truncate under per-subsequence
// normalization, and non-finite values would poison the
// early-abandoning comparisons. l is the node's indexed length and mode
// its series' normalization.
func screen(q *Request, l int, mode series.NormMode) error {
	if n := len(q.Query); n == 0 || n > l || n != l && q.Kind == KindTopK {
		return fmt.Errorf("query length %d, node indexes L=%d", n, l)
	}
	if len(q.Query) < l && mode == series.NormPerSubsequence {
		return fmt.Errorf("query length %d, node indexes L=%d: a shorter query is unsupported under per-subsequence normalization", len(q.Query), l)
	}
	if q.Kind != KindTopK && (q.Eps < 0 || math.IsNaN(q.Eps)) { // top-k has no threshold
		return fmt.Errorf("invalid threshold %v", q.Eps)
	}
	for i, v := range q.Query {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite query value %v at position %d", v, i)
		}
	}
	if q.Kind == KindTopK && (math.IsNaN(q.Bound) || q.Bound < 0) {
		return fmt.Errorf("invalid bound %v", q.Bound)
	}
	return nil
}

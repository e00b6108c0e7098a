package cluster

// The shard RPC's server half: the HTTP face of one cluster node, which
// serves its assigned shards of a saved index (Node) to the coordinator.
// GET /healthz answers NodeHealth as JSON; POST /shard/search, /topk
// and /prefix each take a request frame and answer with a frame
// (wire.go), or refuse in JSON. Queries arrive pre-transformed (the
// coordinator normalizes once) and answers follow the shard.Backend
// contract, so the coordinator's merges reproduce the single-engine
// answer bit for bit. Every handler runs under
// r.Context(): a coordinator that gives up (timeout, death) cancels the
// node-side fan-out instead of leaving it to burn executor time.
// internal/server mounts this handler for tsserve's node role; it lives
// here so both halves of the protocol share one package.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"

	"twinsearch/internal/core"
	"twinsearch/internal/obs"
	"twinsearch/internal/wire"
)

// NodeRPC serves one cluster node's shard RPC. It implements
// http.Handler.
type NodeRPC struct {
	n     *Node
	mux   *http.ServeMux
	drain atomic.Bool
}

// NewNodeRPC wraps a node in its RPC handler.
func NewNodeRPC(n *Node) *NodeRPC {
	h := &NodeRPC{n: n, mux: http.NewServeMux()}
	h.mux.HandleFunc("/healthz", h.health)
	for k := KindSearch; k <= KindPrefix; k++ {
		h.mux.HandleFunc(k.Path(), func(w http.ResponseWriter, r *http.Request) { h.serve(w, r, k) })
	}
	return h
}

// BeginDrain makes every subsequent query answer 503 while /healthz
// keeps working — the graceful-shutdown window in which in-flight
// requests finish and the coordinator routes around the node.
func (h *NodeRPC) BeginDrain() { h.drain.Store(true) }

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

// serve answers one shard RPC of kind k.
func (h *NodeRPC) serve(w http.ResponseWriter, r *http.Request, k Kind) {
	a, status, err := h.answer(r, k)
	if err != nil {
		wire.WriteError(w, status, err)
		return
	}
	b := a.AppendFrame(nil)
	hd := w.Header()
	hd.Set("Content-Type", FrameContentType)
	hd.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b) // the status is out; a failed write has no one left to tell
}

// answer reads a request frame for the endpoint of kind k and runs it,
// or reports the refusal's status: 405 for another method, 415 for
// another Content-Type, 413 past wire.MaxBodyBytes, 400 for a malformed
// frame, one of another kind or parameters the node refuses, and 503
// when the caller hung up or timed out.
func (h *NodeRPC) answer(r *http.Request, k Kind) (Answer, int, error) {
	if r.Method != http.MethodPost {
		return Answer{}, http.StatusMethodNotAllowed, errors.New("POST required")
	}
	if ct := r.Header.Get("Content-Type"); ct != FrameContentType {
		return Answer{}, http.StatusUnsupportedMediaType,
			fmt.Errorf("Content-Type %q; the shard RPC takes %s frames", ct, FrameContentType)
	}
	var q Request
	body, err := wire.ReadBody(r.Body, r.ContentLength, nil)
	if err == nil {
		q, err = ParseRequest(body)
	}
	if err == nil && q.Kind != k {
		err = fmt.Errorf("malformed shard frame: kind %d sent to %s", q.Kind, k.Path())
	}
	if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
		return Answer{}, http.StatusRequestEntityTooLarge, fmt.Errorf("bad request body: %w", err)
	} else if err != nil {
		return Answer{}, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err)
	}
	ctx, tr := r.Context(), (*obs.Trace)(nil)
	if q.Trace {
		// The node's own trace: the shard layer annotates its root, and
		// the finished subtree (StartUs relative to this node's trace
		// start) rides back in the answer.
		tr = obs.NewTrace("node:" + h.n.Name)
		ctx = obs.WithSpan(ctx, tr.Root)
	}
	a, err := h.run(ctx, &q)
	if err == nil && tr != nil {
		tr.Finish()
		a.Trace, err = json.Marshal(tr.Root)
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return a, http.StatusServiceUnavailable, err
	}
	return a, http.StatusBadRequest, err
}

// run answers q on the node's shards once screen has passed it.
func (h *NodeRPC) run(ctx context.Context, q *Request) (a Answer, err error) {
	sub := h.n.Sub
	if err = screen(q, sub.L()); err != nil {
		return a, err
	}
	var st core.Stats
	switch q.Kind {
	case KindSearch:
		a.Matches, st, err = sub.SearchStatsCtx(ctx, q.Query, q.Eps)
		a.Stats = &st
	case KindTopK:
		a.Matches, err = sub.SearchTopKCtx(ctx, q.Query, q.K, q.Bound)
	case KindPrefix:
		a.Matches, err = sub.SearchPrefixTreeCtx(ctx, q.Query, q.Eps)
	}
	return a, err
}

// screen refuses at the door what the shard layer assumes valid: it
// panics on length mismatches (its callers validate), and non-finite
// values would poison the early-abandoning comparisons. l is the
// node's indexed length.
func screen(q *Request, l int) error {
	// Prefix queries are shorter than L by design; the shard layer
	// validates their length itself.
	if len(q.Query) != l && q.Kind != KindPrefix {
		return fmt.Errorf("query length %d, node indexes L=%d", len(q.Query), l)
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

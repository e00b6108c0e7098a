package cluster

// The shard RPC's server half: the HTTP face of one cluster node. A
// node serves its assigned shards of a saved index (Node, a
// shard.Index opened by shard.OpenArenaShards) and exposes the five
// search paths to the coordinator:
//
//	GET  /healthz       → NodeHealth (role "node", assignment)
//	POST /shard/search  → SearchRequest → SearchResponse (+stats)
//	POST /shard/topk    → TopKRequest   → SearchResponse
//	POST /shard/prefix  → SearchRequest → SearchResponse (tree only)
//	POST /shard/approx  → ApproxRequest → SearchResponse (+stats)
//
// Queries arrive pre-transformed (the coordinator normalizes once) and
// responses follow the shard.Backend contract, so the coordinator's
// merges reproduce the single-engine answer bit for bit. Every handler
// runs under r.Context(): a coordinator that gives up (timeout, death)
// cancels the node-side fan-out instead of leaving it to burn executor
// time. internal/server mounts this handler for tsserve's node role;
// it lives here so the client and server halves of the protocol share
// one package.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync/atomic"

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
}

// NewNodeRPC wraps a node in its RPC handler.
func NewNodeRPC(n *Node) *NodeRPC {
	h := &NodeRPC{n: n, mux: http.NewServeMux()}
	h.mux.HandleFunc("/healthz", h.health)
	h.mux.HandleFunc("/shard/search", h.search)
	h.mux.HandleFunc("/shard/topk", h.topk)
	h.mux.HandleFunc("/shard/prefix", h.prefix)
	h.mux.HandleFunc("/shard/approx", h.approx)
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

// decodeRPC reads one POSTed request body into req (f names its
// fields, see wire.ReadRequest), enforcing method, size and
// well-formedness uniformly across the shard endpoints.
func (h *NodeRPC) decodeRPC(w http.ResponseWriter, r *http.Request, req any, f wire.Fields) bool {
	return wire.ReadRequest(w, r, req, f, h.n.Sub.L())
}

// writeRPC writes a search result, translating errors: context endings
// (the caller hung up or timed out) are 503, everything else is the
// node refusing the request (400). tr, when non-nil, is the node's
// finished span tree for the query, returned so the coordinator can
// stitch the cross-node trace.
func writeRPC(w http.ResponseWriter, ms []series.Match, st *core.Stats, err error, tr *obs.Trace) {
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusServiceUnavailable
		}
		wire.WriteError(w, status, err)
		return
	}
	if tr == nil {
		var stats any // a nil *core.Stats must stay an absent key, not "stats":null
		if st != nil {
			stats = st
		}
		if wire.WriteShardAnswer(w, ms, stats) {
			return
		}
	}
	resp := SearchResponse{Matches: toWire(ms), Stats: st}
	if tr != nil {
		tr.Finish()
		resp.Trace = tr.Root
	}
	wire.WriteJSON(w, http.StatusOK, resp)
}

// traceCtx starts a node-local trace when the request asked for one
// (req.Trace): the returned context carries the node's root span, so
// the shard layer below annotates it, and writeRPC ships the finished
// subtree back. StartUs values in it are relative to this node's own
// trace start.
func (h *NodeRPC) traceCtx(r *http.Request, want bool) (context.Context, *obs.Trace) {
	if !want {
		return r.Context(), nil
	}
	tr := obs.NewTrace("node:" + h.n.Name)
	return obs.WithSpan(r.Context(), tr.Root), tr
}

func (h *NodeRPC) search(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if !h.decodeRPC(w, r, &req, wire.Fields{Query: &req.Query, Eps: &req.Eps, Trace: &req.Trace}) {
		return
	}
	if err := validateRPCQuery(req.Query, h.n.Sub.L(), req.Eps); err != nil {
		wire.WriteError(w, http.StatusBadRequest, err)
		return
	}
	ctx, tr := h.traceCtx(r, req.Trace)
	ms, st, err := h.n.Sub.SearchStatsCtx(ctx, req.Query, req.Eps)
	writeRPC(w, ms, &st, err, tr)
}

func (h *NodeRPC) topk(w http.ResponseWriter, r *http.Request) {
	var req TopKRequest
	if !h.decodeRPC(w, r, &req, wire.Fields{Query: &req.Query, K: &req.K, Bound: &req.Bound, Trace: &req.Trace}) {
		return
	}
	if err := validateRPCQuery(req.Query, h.n.Sub.L(), 0); err != nil {
		wire.WriteError(w, http.StatusBadRequest, err)
		return
	}
	bound := math.Inf(1)
	if req.Bound != nil {
		if math.IsNaN(*req.Bound) || *req.Bound < 0 {
			wire.WriteError(w, http.StatusBadRequest, fmt.Errorf("invalid bound %v", *req.Bound))
			return
		}
		bound = *req.Bound
	}
	ctx, tr := h.traceCtx(r, req.Trace)
	ms, err := h.n.Sub.SearchTopKCtx(ctx, req.Query, req.K, bound)
	writeRPC(w, ms, nil, err, tr)
}

func (h *NodeRPC) prefix(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if !h.decodeRPC(w, r, &req, wire.Fields{Query: &req.Query, Eps: &req.Eps, Trace: &req.Trace}) {
		return
	}
	// Prefix queries are shorter than L by design; the shard layer
	// validates the length itself. Screen the values and threshold only.
	if err := validateRPCValues(req.Query, req.Eps); err != nil {
		wire.WriteError(w, http.StatusBadRequest, err)
		return
	}
	ctx, tr := h.traceCtx(r, req.Trace)
	ms, err := h.n.Sub.SearchPrefixTreeCtx(ctx, req.Query, req.Eps)
	writeRPC(w, ms, nil, err, tr)
}

func (h *NodeRPC) approx(w http.ResponseWriter, r *http.Request) {
	var req ApproxRequest
	if !h.decodeRPC(w, r, &req, wire.Fields{Query: &req.Query, Eps: &req.Eps, LeafBudget: &req.LeafBudget, Trace: &req.Trace}) {
		return
	}
	if err := validateRPCQuery(req.Query, h.n.Sub.L(), req.Eps); err != nil {
		wire.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if req.LeafBudget <= 0 {
		wire.WriteError(w, http.StatusBadRequest, fmt.Errorf("leaf budget %d; a positive probe count is required", req.LeafBudget))
		return
	}
	ctx, tr := h.traceCtx(r, req.Trace)
	ms, st, err := h.n.Sub.SearchApproxCtx(ctx, req.Query, req.Eps, req.LeafBudget)
	writeRPC(w, ms, &st, err, tr)
}

// validateRPCQuery screens a full-length RPC query before it reaches
// the shards: the shard layer panics on length mismatches (its callers
// validate), and non-finite values would poison the early-abandoning
// comparisons, so the node refuses both at the door.
func validateRPCQuery(q []float64, l int, eps float64) error {
	if len(q) != l {
		return fmt.Errorf("query length %d, node indexes L=%d", len(q), l)
	}
	return validateRPCValues(q, eps)
}

func validateRPCValues(q []float64, eps float64) error {
	if eps < 0 || math.IsNaN(eps) {
		return fmt.Errorf("invalid threshold %v", eps)
	}
	for i, v := range q {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite query value %v at position %d", v, i)
		}
	}
	return nil
}

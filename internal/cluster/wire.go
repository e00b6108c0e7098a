package cluster

// Wire types of the shard RPC — the JSON bodies internal/server's
// /shard/* endpoints accept and produce, shared by the server handlers
// and the coordinator's HTTP client so the two cannot drift. Queries
// travel pre-transformed (the coordinator normalizes once); floats
// survive the JSON round trip exactly (encoding/json emits the shortest
// decimal that parses back to the same float64), which the
// byte-identical differential guarantees rely on.

import (
	"time"

	"twinsearch/internal/core"
	"twinsearch/internal/obs"
	"twinsearch/internal/series"
)

// SearchRequest asks for all twins at eps among the node's windows
// (POST /shard/search) or, with prefix searches, the tree half of a
// shorter query (POST /shard/prefix).
type SearchRequest struct {
	Query []float64 `json:"query"` // engine value space
	Eps   float64   `json:"eps"`
	// Trace asks the node to record its own span tree for this query
	// and return it in SearchResponse.Trace, so the coordinator can
	// stitch one cross-node trace. Set automatically when the
	// coordinator's context carries a span.
	Trace bool `json:"trace,omitempty"`
}

// TopKRequest asks for the node's k nearest (POST /shard/topk). Bound,
// when present, seeds the node's shared pruning bound with the
// coordinator's current k-th threshold (see shard.Backend); absent
// means unbounded. A pointer because +Inf does not exist in JSON.
type TopKRequest struct {
	Query []float64 `json:"query"`
	K     int       `json:"k"`
	Bound *float64  `json:"bound,omitempty"`
	Trace bool      `json:"trace,omitempty"` // see SearchRequest.Trace
}

// ApproxRequest asks for an approximate search drawing at most
// LeafBudget leaf probes across the node's shards (POST /shard/approx).
type ApproxRequest struct {
	Query      []float64 `json:"query"`
	Eps        float64   `json:"eps"`
	LeafBudget int       `json:"leaf_budget"`
	Trace      bool      `json:"trace,omitempty"` // see SearchRequest.Trace
}

// Match is one result on the wire. Dist is -1 for range-style results
// (the engine's "not computed" convention) and the true Chebyshev
// distance for top-k.
type Match struct {
	Start int     `json:"start"`
	Dist  float64 `json:"dist"`
}

// SearchResponse carries a node's matches (sorted per the
// shard.Backend contract) and, for the paths that report them, the
// traversal counters summed over the node's work units.
type SearchResponse struct {
	Matches []Match     `json:"matches"`
	Stats   *core.Stats `json:"stats,omitempty"`
	// Trace is the node's span subtree for this query, present only
	// when the request asked for one. Its StartUs values are relative
	// to the node's own trace start (clocks are not assumed
	// synchronized); the coordinator grafts it under the replica-
	// attempt span that won.
	Trace *obs.Span `json:"trace,omitempty"`
}

// toWire converts engine matches to wire form.
func toWire(ms []series.Match) []Match {
	out := make([]Match, len(ms))
	for i, m := range ms {
		out[i] = Match{Start: m.Start, Dist: m.Dist}
	}
	return out
}

// fromWire converts wire matches back to engine form.
func fromWire(ms []Match) []series.Match {
	if len(ms) == 0 {
		return nil
	}
	out := make([]series.Match, len(ms))
	for i, m := range ms {
		out[i] = series.Match{Start: m.Start, Dist: m.Dist}
	}
	return out
}

// NodeHealth is the /healthz shape a shard node reports and a
// coordinator consumes: enough to cross-check that both sides describe
// the same index before any query flows.
type NodeHealth struct {
	Status      string `json:"status"`
	Role        string `json:"role"`
	Name        string `json:"name"`
	L           int    `json:"l"`
	Norm        string `json:"norm"`
	SeriesLen   int    `json:"series_len"`
	Windows     int    `json:"windows"`
	Shards      []int  `json:"shard_ids"`
	TotalShards int    `json:"total_shards"`
	HeapBytes   int    `json:"heap_bytes"`
	MappedBytes int    `json:"mapped_bytes"`
}

// PeerStatus is one row of a coordinator's view of its nodes, surfaced
// through the coordinator's /healthz. Alive is the last liveness fact
// written for the node — by the open handshake, the membership sweep or
// a query attempt — and Error the failure that put it down; CheckedAt
// is when the fact was written (zero: never).
type PeerStatus struct {
	Name      string    `json:"name"`
	Addr      string    `json:"addr"`
	Shards    []int     `json:"shard_ids"`
	Windows   int       `json:"windows"`
	Alive     bool      `json:"alive"`
	Error     string    `json:"error,omitempty"`
	CheckedAt time.Time `json:"checked_at,omitzero"`
}

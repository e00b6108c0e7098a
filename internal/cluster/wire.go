package cluster

// The shard RPC's bytes, shared by the node (rpc.go) and the
// coordinator (cluster.go) so the two cannot drift. A coordinator
// upgrades a connection (GET StreamPath, answered 101) and sends one
// request at a time on it. Queries, bounds and distances travel as raw
// float64 bits, so neither side prints or parses a float and every
// value — ±0, subnormals, +Inf — arrives bit for bit, as the
// byte-identical differential guarantees need.
//
//	stream:  u32 len, request → u32 status (200, 400, 413 or 503),
//	         u32 len, answer (200) or JSON {"error": ...}
//	request: u8 FrameVersion, u8 kind (1 search, 2 topk),
//	         u8 flags (1: return the node's span tree), f64 eps, i64 k,
//	         f64 bound (+Inf: none), u32 n, n × f64 query
//	answer:  u8 FrameVersion, u32 n, n × (i64 start, f64 dist),
//	         u8 1 when six i64 core.Stats counters follow (else 0),
//	         u32 m, m bytes of the span tree as JSON (m = 0 untraced)

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"time"

	"twinsearch/internal/core"
	"twinsearch/internal/series"
)

const (
	// FrameVersion is the layout this build speaks, stream included. A
	// node reports it in /healthz and a coordinator refuses a node
	// reporting another, at open and at rejoin, so a cluster of mixed
	// builds fails loudly.
	FrameVersion = 4
	// StreamPath and StreamProtocol are the stream's Upgrade request.
	StreamPath     = "/shard/stream"
	StreamProtocol = "twinsearch-shard"
)

// Kind names a shard RPC.
type Kind uint8

const (
	KindSearch Kind = iota + 1 // all twins at eps, with stats
	KindTopK                   // the k nearest within a bound
)

// String names k in errors.
func (k Kind) String() string { return [...]string{"", "search", "topk"}[k] }

// Request is one shard RPC: the path's parameters and a query in engine
// value space. Fields its kind does not use travel as written.
type Request struct {
	Kind Kind
	// Trace asks the node for its own span tree of the query, returned
	// in Answer.Trace so the coordinator can stitch one cross-node trace.
	Trace bool
	Eps   float64
	K     int
	// Bound seeds the node's shared top-k pruning bound with the
	// coordinator's k-th distance (see internal/shard); +Inf is none.
	Bound float64
	Query []float64
}

// Answer is a node's reply: its matches, sorted per internal/shard's
// contract (Dist -1 for range-style results); the traversal counters
// summed over its shards, for the paths that report them; and,
// when asked, its span tree as JSON, with StartUs relative to the
// node's own trace start (clocks are not assumed synchronized).
type Answer struct {
	Matches []series.Match
	Stats   *core.Stats
	Trace   []byte
}

var le = binary.LittleEndian

// AppendFrame appends q's frame to b.
func (q *Request) AppendFrame(b []byte) []byte {
	b = slices.Grow(b, 31+8*len(q.Query))
	var flags byte
	if q.Trace {
		flags = 1
	}
	b = append(b, FrameVersion, byte(q.Kind), flags)
	for _, v := range [...]uint64{math.Float64bits(q.Eps), uint64(q.K), math.Float64bits(q.Bound)} {
		b = le.AppendUint64(b, v)
	}
	b = le.AppendUint32(b, uint32(len(q.Query)))
	for _, v := range q.Query {
		b = le.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// ParseRequest decodes a request frame.
func ParseRequest(b []byte) (Request, error) {
	f := frame{b: b}
	f.version()
	q := Request{Kind: Kind(f.u8()), Trace: f.flag()}
	if q.Kind < KindSearch || q.Kind > KindTopK {
		f.fail("kind %d", q.Kind)
	}
	q.Eps, q.K, q.Bound = f.f64(), f.int(), f.f64()
	q.Query = make([]float64, f.count(8))
	for i := range q.Query {
		q.Query[i] = f.f64()
	}
	return q, f.end()
}

// AppendFrame appends a's frame to b.
func (a *Answer) AppendFrame(b []byte) []byte {
	b = slices.Grow(b, 58+16*len(a.Matches)+len(a.Trace))
	b = le.AppendUint32(append(b, FrameVersion), uint32(len(a.Matches)))
	for _, m := range a.Matches {
		b = le.AppendUint64(le.AppendUint64(b, uint64(m.Start)), math.Float64bits(m.Dist))
	}
	if a.Stats == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		for _, p := range statsFields(a.Stats) {
			b = le.AppendUint64(b, uint64(*p))
		}
	}
	return append(le.AppendUint32(b, uint32(len(a.Trace))), a.Trace...)
}

// ParseAnswer decodes an answer frame. An empty match list is nil, and
// Trace aliases b.
func ParseAnswer(b []byte) (Answer, error) {
	f, a := frame{b: b}, Answer{}
	f.version()
	if n := f.count(16); n > 0 {
		a.Matches = make([]series.Match, n)
	}
	for i := range a.Matches {
		a.Matches[i] = series.Match{Start: f.int(), Dist: f.f64()}
	}
	if f.flag() {
		a.Stats = new(core.Stats)
		for _, p := range statsFields(a.Stats) {
			*p = f.int()
		}
	}
	if n := f.count(1); n > 0 {
		a.Trace = f.next(n)
	}
	return a, f.end()
}

// refusalBody is the JSON a node has always refused in.
type refusalBody struct {
	Error string `json:"error"`
}

// appendRefusal appends a refusal's envelope: status, length, JSON.
func appendRefusal(b []byte, status int, err error) []byte {
	body, _ := json.Marshal(refusalBody{err.Error()})
	return append(le.AppendUint32(le.AppendUint32(b, uint32(status)), uint32(len(body))), body...)
}

// statsFields lists the frame's six counters in wire order.
func statsFields(st *core.Stats) [6]*int {
	return [6]*int{&st.NodesVisited, &st.NodesPruned, &st.LeavesReached,
		&st.Candidates, &st.Abandons, &st.Results}
}

// frame is a decoding cursor that refuses another version, a flag byte
// other than 0 or 1, a truncated frame, bytes after its end, and a
// count the rest cannot hold (before anything is allocated for it). It
// keeps the first failure, after which every read returns zeros, so a
// decoder reads straight through and asks end for the verdict.
type frame struct {
	b   []byte
	err error
}

var zeros [8]byte

func (f *frame) fail(format string, args ...any) {
	if f.err == nil {
		f.err = fmt.Errorf("malformed shard frame: "+format, args...)
	}
}

// next consumes n bytes; n ≤ 8 unless a count has vouched for them.
func (f *frame) next(n int) []byte {
	if f.err != nil || len(f.b) < n {
		f.fail("truncated") // unless the frame had already failed
		return zeros[:n]
	}
	p := f.b[:n:n]
	f.b = f.b[n:]
	return p
}

func (f *frame) u8() byte     { return f.next(1)[0] }
func (f *frame) int() int     { return int(int64(le.Uint64(f.next(8)))) }
func (f *frame) f64() float64 { return math.Float64frombits(le.Uint64(f.next(8))) }

// flag reads a u8 that must be 0 or 1.
func (f *frame) flag() bool {
	v := f.u8()
	if v > 1 {
		f.fail("flag byte %d", v)
	}
	return v == 1
}

func (f *frame) version() {
	if v := f.u8(); v != FrameVersion {
		f.fail("version %d, this build speaks %d", v, FrameVersion)
	}
}

// count reads a u32 count of size-byte elements and checks that the
// rest of the frame holds them, so a hostile count costs no allocation.
func (f *frame) count(size int) int {
	n := uint64(le.Uint32(f.next(4)))
	if f.err == nil && n*uint64(size) > uint64(len(f.b)) {
		f.fail("count %d of %d-byte elements in %d bytes", n, size, len(f.b))
	}
	if f.err != nil {
		return 0
	}
	return int(n)
}

// end reports the first failure, or bytes left after the frame.
func (f *frame) end() error {
	if len(f.b) > 0 {
		f.fail("%d trailing bytes", len(f.b))
	}
	return f.err
}

// NodeHealth is the /healthz shape a shard node reports and a
// coordinator consumes: enough to cross-check that both sides describe
// the same index, and speak the same frame, before any query flows.
type NodeHealth struct {
	Status      string `json:"status"`
	Role        string `json:"role"`
	Name        string `json:"name"`
	Frame       int    `json:"frame_version"`
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

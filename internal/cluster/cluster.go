// Package cluster is the distributed query tier over a saved sharded
// TS-Index (TSSH v4): one saved index, many processes. A **node** opens
// only its assigned shard subset — selective mmap via the segment
// table, O(assigned) cost — and serves the shard RPC (rpc.go). A
// **coordinator** fans each query across the topology's replica groups
// over pooled streams with per-node timeouts and recombines with the
// same deterministic merges the local fan-out uses, so a cluster
// answers byte-identically to a single local engine: range-style paths
// k-way merge the groups' disjoint start-sorted lists, top-k runs
// two-phase with a shared bound (the seed group's k-th distance is
// broadcast to prune the rest — exactly the bound one local shard's
// traversal publishes to another, so the merged result is unchanged).
//
// The topology is static (a JSON file mapping node addresses to shard
// ranges) but replicated: with Replicas R ≥ 2 every shard set is owned
// by R interchangeable nodes, and the coordinator survives node
// failure — an RPC that errors or times out marks its node down and
// retries on the next replica, hedged requests bound the tail of
// slow-but-alive nodes (failover.go), and down nodes stay off the
// first-attempt path until a background membership sweep or a
// successful attempt marks them up (health.go). Because replicas serve
// identical subsets of one saved index, answers stay byte-identical
// whichever owner responds. Only when every replica of a shard set is
// out does a query fail — loudly, naming the nodes — never a silent
// partial answer, never a hang.
//
// The decomposition mirrors the relational-join view of search-space
// partitioning (cf. Relational E-Matching): partition, evaluate
// partitions independently, recombine order-preservingly.
package cluster

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptrace"
	"sync"
	"syscall"
	"time"

	"twinsearch/internal/core"
	"twinsearch/internal/obs"
	"twinsearch/internal/series"
	"twinsearch/internal/shard"
	"twinsearch/internal/wire"
)

// Options configures OpenCoordinator.
type Options struct {
	// Timeout bounds every per-node RPC (0 selects 10s). An attempt
	// that misses it fails over to the next replica; only when every
	// replica is out does the query fail.
	Timeout time.Duration
	// HedgeDelay, when positive, issues each unit to a second replica
	// after this delay; the first response wins and the loser is
	// canceled. Pick a high quantile of healthy latency (a few ms on a
	// LAN) so hedges fire only on the slow tail. 0 disables hedging.
	HedgeDelay time.Duration
	// RefreshInterval is the background membership sweep period
	// (0 → 2s; negative disables the sweep — tests drive
	// Coordinator.Sweep explicitly).
	RefreshInterval time.Duration
	// Client overrides the HTTP client that probes /healthz and opens
	// the streams (tests inject faults via the Chaos transport); nil
	// selects the coordinator's own: HTTP/1.1 and no proxy, as neither
	// HTTP/2 nor a forward proxy carries an Upgrade.
	Client *http.Client
}

const (
	defaultTimeout = 10 * time.Second
	defaultRefresh = 2 * time.Second
	probeTimeout   = 2 * time.Second // bounds each liveness probe behind Sweep
)

// owner is one opened topology entry: the node's shard-RPC client plus
// its one liveness fact (see health.go).
type owner struct {
	spec NodeSpec
	b    *remote
	g    *group // the replica group this owner belongs to

	mu        sync.Mutex
	alive     bool
	errMsg    string
	checkedAt time.Time // when the fact was written; zero = never
}

// group is one replica group: a shard set with R interchangeable
// owners — the coordinator's fan-out unit.
type group struct {
	shards  []int
	windows int
	owners  []*owner // topology order
}

// Coordinator fans queries over the topology's replica groups. Methods
// are safe for concurrent use.
type Coordinator struct {
	ext      *series.Extractor
	l        int
	total    int // shard count of the saved index
	windows  int // windows served across all groups (each counted once)
	replicas int
	groups   []*group
	owners   []*owner // every topology entry, in topology order

	timeout, hedgeDelay time.Duration
	own                 *http.Transport // nil with Options.Client
	stopSweep           context.CancelFunc
	sweepDone           chan struct{}
}

// OpenCoordinator dials every topology entry and cross-checks it (same
// L, normalization, series length, and shard assignment as the
// topology claims), and verifies the replicated assignment covers the
// index's shards exactly (R owners per shard, replica groups mirroring
// whole shard sets) and the per-group window counts sum to the
// series'. A node that cannot be reached opens the cluster
// **degraded** when its group still has at least one reachable owner
// (the read quorum): the dead node starts down and rejoins via the
// membership sweep once it answers health probes again. A group with
// no reachable owner refuses the open. ext must present the same
// series the index was built over; queries are fanned out
// pre-transformed. ctx bounds the whole open — dialing and
// cross-checking every node — so a caller's deadline or cancellation
// aborts a wedged dial instead of waiting out the per-node timeout.
func OpenCoordinator(ctx context.Context, topo *Topology, ext *series.Extractor, l int, o Options) (*Coordinator, error) {
	if o.Timeout <= 0 {
		o.Timeout = defaultTimeout
	}
	c := &Coordinator{ext: ext, l: l, replicas: topo.R(), timeout: o.Timeout, hedgeDelay: o.HedgeDelay}
	client := o.Client
	if client == nil {
		c.own = &http.Transport{Protocols: new(http.Protocols), MaxIdleConnsPerHost: 16, IdleConnTimeout: 90 * time.Second}
		c.own.Protocols.SetHTTP1(true)
		client = &http.Client{Transport: c.own}
	}
	fail := func(err error) (*Coordinator, error) {
		c.Close()
		return nil, err
	}

	// The assignment's shape first (R owners per shard, mirrored
	// replica sets), so grouping below cannot mis-bucket a malformed
	// document. Parsed topologies were already checked; programmatic
	// ones are checked here.
	if err := topo.validateAssignment(-1); err != nil {
		return fail(err)
	}

	total := -1
	reported := map[*owner]int{} // windows each reachable node serves
	groupOf := map[string]*group{}
	for _, spec := range topo.Nodes {
		// Up to 16 idle streams a node; a burst past them dials more.
		ow := &owner{spec: spec, b: &remote{base: spec.Addr, client: client,
			idle: make(chan *Stream, 16)}}
		hctx, cancel := context.WithTimeout(ctx, o.Timeout)
		h, err := ow.b.health(hctx)
		if cancel(); err != nil {
			err = fmt.Errorf("node %q (%s): %w", spec.Name, spec.Addr, err)
			// Unreachable is weather, not configuration: mark the node
			// down and let the per-group quorum check below decide
			// whether the cluster can open degraded without it.
			ow.mark(false, err)
		} else {
			if err := checkNodeIdentity(h, spec, ext, l); err != nil {
				return fail(err)
			}
			if total == -1 {
				total = h.TotalShards
			} else if total != h.TotalShards {
				return fail(fmt.Errorf("cluster: node %q serves a different index (%d shards vs %d)",
					spec.Name, h.TotalShards, total))
			}
			reported[ow] = h.Windows
			ow.mark(true, nil)
		}
		c.owners = append(c.owners, ow)
		key := shardSetKey(spec.Shards)
		g := groupOf[key]
		if g == nil {
			g = &group{shards: normalizeShards(append([]int(nil), spec.Shards...))}
			groupOf[key] = g
			c.groups = append(c.groups, g)
		}
		g.owners = append(g.owners, ow)
		ow.g = g
	}

	// Per-group quorum and window agreement: every shard set needs at
	// least one reachable owner to open (degraded below R is fine —
	// reads need one replica), and reachable replicas must report the
	// same window count (same subset of the same index).
	for _, g := range c.groups {
		var live []*owner
		var firstErr string
		for _, ow := range g.owners {
			alive, errMsg, _ := ow.fact()
			if alive {
				live = append(live, ow)
			} else if firstErr == "" {
				firstErr = errMsg
			}
		}
		if len(live) == 0 {
			return fail(fmt.Errorf("cluster: shards %v: no reachable replica (%d listed): %s",
				g.shards, len(g.owners), firstErr))
		}
		g.windows = reported[live[0]]
		for _, ow := range live[1:] {
			if reported[ow] != g.windows {
				return fail(fmt.Errorf("cluster: replicas %q and %q of shards %v disagree on window count (%d vs %d)",
					live[0].spec.Name, ow.spec.Name, g.shards, g.windows, reported[ow]))
			}
		}
		c.windows += g.windows
	}
	c.total = total

	if err := topo.checkCoverage(total); err != nil {
		return fail(err)
	}
	if count := series.NumSubsequences(ext.Len(), l); c.windows != count {
		return fail(fmt.Errorf("cluster: nodes serve %d windows, series has %d", c.windows, count))
	}

	if o.RefreshInterval >= 0 {
		interval := cmp.Or(o.RefreshInterval, defaultRefresh)
		// The sweep outlives the open call but not the coordinator:
		// detach from the caller's deadline, keep its values, cancel in
		// Close.
		sctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
		c.stopSweep = cancel
		c.sweepDone = make(chan struct{})
		//tsvet:ignore network-bound membership sweep must not occupy CPU executor workers
		go c.sweepLoop(sctx, interval)
	}
	return c, nil
}

// Close stops the membership sweep and closes the idle streams and
// connections. No query may run during or after it.
func (c *Coordinator) Close() error {
	if c.stopSweep != nil {
		c.stopSweep()
		<-c.sweepDone
		c.stopSweep = nil
	}
	if c.own != nil {
		c.own.CloseIdleConnections()
	}
	for _, ow := range c.owners {
		for len(ow.b.idle) > 0 {
			(<-ow.b.idle).Close()
		}
	}
	return nil
}

// TotalShards returns the shard count of the saved index being served.
func (c *Coordinator) TotalShards() int { return c.total }

// Windows returns the total indexed windows across all replica groups
// (each group counted once, however many replicas serve it).
func (c *Coordinator) Windows() int { return c.windows }

// L returns the indexed subsequence length.
func (c *Coordinator) L() int { return c.l }

// Replicas returns the topology's replication factor R.
func (c *Coordinator) Replicas() int { return c.replicas }

// Search returns all twins of q at eps across the cluster, sorted by
// start — byte-identical to a single local engine over the same saved
// index. q may be shorter than L: the group holding the last shard
// scans the windows that exist only at its length (see internal/shard),
// so the merge needs no step of its own.
func (c *Coordinator) Search(ctx context.Context, q []float64, eps float64) ([]series.Match, error) {
	ms, _, err := c.SearchStats(ctx, q, eps)
	return ms, err
}

// SearchStats is Search with traversal counters summed across every
// group's shards.
func (c *Coordinator) SearchStats(ctx context.Context, q []float64, eps float64) ([]series.Match, core.Stats, error) {
	per, err := fanOut(ctx, c, -1, func(ctx context.Context, b *remote) (Answer, error) {
		return b.call(ctx, Request{Kind: KindSearch, Eps: eps, Query: q})
	})
	if err != nil {
		return nil, core.Stats{}, err
	}
	msp := obs.SpanFrom(ctx).StartChild("merge")
	lists := make([][]series.Match, len(per))
	var st core.Stats
	for i, a := range per {
		lists[i] = a.Matches
		if a.Stats != nil {
			st = shard.AddStats(st, *a.Stats)
		}
	}
	ms := shard.MergeByStart(lists)
	if msp != nil {
		msp.Set("groups", len(lists))
		msp.Set("results", len(ms))
		msp.End()
	}
	return ms, st, nil
}

// SearchTopK returns the k nearest across the cluster in (dist, start)
// order, in two phases: the group serving the most windows answers
// unbounded, then its k-th distance is broadcast as the pruning bound
// for every other group — the same monotone bound a local index's
// shards share through core.SharedBound, so the merged result is
// exactly the single-engine top-k. Each phase's units fail over and
// hedge like any other.
func (c *Coordinator) SearchTopK(ctx context.Context, q []float64, k int) ([]series.Match, error) {
	if k <= 0 {
		return nil, nil
	}
	seed := 0
	for gi, g := range c.groups {
		if g.windows > c.groups[seed].windows {
			seed = gi
		}
	}

	// Phase 1: the seed group, unbounded.
	first, err := runUnit(ctx, c, c.groups[seed], func(ctx context.Context, b *remote) ([]series.Match, error) {
		a, err := b.call(ctx, Request{Kind: KindTopK, K: k, Bound: math.Inf(1), Query: q})
		return a.Matches, err
	})
	if err != nil {
		return nil, err
	}
	bound := math.Inf(1)
	if len(first) >= k {
		bound = first[k-1].Dist
	}

	// Phase 2: every other group, pruning against the seed's k-th
	// distance.
	lists, err := fanOut(ctx, c, seed, func(ctx context.Context, b *remote) ([]series.Match, error) {
		a, err := b.call(ctx, Request{Kind: KindTopK, K: k, Bound: bound, Query: q})
		return a.Matches, err
	})
	if err != nil {
		return nil, err
	}
	lists[seed] = first
	return shard.MergeTopK(lists, k), nil
}

// --- the shard-RPC client ---

// remote speaks the shard RPC to one node over pooled streams, on its
// caller's goroutine; its answers keep internal/shard's contract.
type remote struct {
	base   string
	client *http.Client
	idle   chan *Stream // the streams kept open between calls
}

// Stream is one upgraded connection to a node's shard RPC, carrying one
// request at a time; it is not safe for concurrent use.
type Stream struct {
	rc      io.ReadCloser // the 101 answer's body
	w       io.Writer
	r       *bufio.Reader
	lr      io.LimitedReader
	hdr     [8]byte
	out, in []byte // reused from one exchange to the next
}

var errUnanswered = errors.New("stream ended before an answer") // no answer byte arrived

// DialStream opens a stream to the node at base through client, or
// reports the node's refusal in its words.
func DialStream(ctx context.Context, client *http.Client, base string) (*Stream, error) {
	var conn net.Conn // written directly when a RoundTripper wraps the 101 body read-only
	ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{GotConn: func(i httptrace.GotConnInfo) { conn = i.Conn }})
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+StreamPath, nil)
	if err != nil {
		return nil, err
	}
	req.Header = http.Header{"Connection": {"Upgrade"}, "Upgrade": {StreamProtocol}}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		defer resp.Body.Close()
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return nil, fmt.Errorf("stream: %s", refusal(resp.Status, body))
	}
	s := &Stream{rc: resp.Body, w: conn, r: bufio.NewReader(resp.Body)}
	if w, ok := resp.Body.(io.Writer); ok {
		s.w = w
	} else if conn == nil {
		resp.Body.Close()
		return nil, errors.New("stream: the upgraded connection is not writable")
	}
	return s, nil
}

// Close closes the stream.
func (s *Stream) Close() error { return s.rc.Close() }

// Exchange writes one request (the frame appendFrame appends) and reads
// the answer's status and body, the stream's buffer until the next
// exchange. A ctx that ends first closes the stream, so the node cancels
// the query. An unknown status, a length past wire.MaxBodyBytes (never
// allocated) or a short body is an error, which closes the stream.
func (s *Stream) Exchange(ctx context.Context, appendFrame func([]byte) []byte) (status int, body []byte, err error) {
	stop := context.AfterFunc(ctx, func() { s.rc.Close() })
	defer func() {
		if !stop() {
			err = ctx.Err()
		} else if err != nil {
			s.rc.Close()
		}
	}()
	s.out = appendFrame(append(s.out[:0], 0, 0, 0, 0))
	le.PutUint32(s.out, uint32(len(s.out)-4))
	if _, err := s.w.Write(s.out); err != nil {
		return 0, nil, fmt.Errorf("%w: %w", errUnanswered, err)
	}
	if n, err := io.ReadFull(s.r, s.hdr[:]); n == 0 {
		return 0, nil, fmt.Errorf("%w: %w", errUnanswered, err)
	} else if err != nil {
		return 0, nil, fmt.Errorf("truncated envelope: %w", err)
	}
	st, n := le.Uint32(s.hdr[:]), le.Uint32(s.hdr[4:])
	if st != 200 && st != 400 && st != 413 && st != 503 {
		return 0, nil, fmt.Errorf("malformed envelope: status %d", st)
	} else if n > wire.MaxBodyBytes {
		return 0, nil, fmt.Errorf("malformed envelope: length %d past the %d-byte limit", n, wire.MaxBodyBytes)
	}
	s.lr = io.LimitedReader{R: s.r, N: int64(n)}
	if s.in, err = wire.ReadBody(&s.lr, int64(n), s.in[:0]); err != nil || s.lr.N > 0 {
		return 0, nil, fmt.Errorf("truncated envelope: %w", cmp.Or(err, io.ErrUnexpectedEOF))
	}
	return int(st), s.in, nil
}

// checkNodeIdentity cross-checks a node's health report against its
// topology entry and the coordinator's series — the configuration half
// of the handshake, always fatal (a wrong node is not weather).
func checkNodeIdentity(h NodeHealth, spec NodeSpec, ext *series.Extractor, l int) error {
	if h.Role != "node" {
		return fmt.Errorf("cluster: node %q (%s) reports role %q, want a shard node", spec.Name, spec.Addr, h.Role)
	}
	if h.Frame != FrameVersion {
		return fmt.Errorf("cluster: node %q (%s) speaks shard frame version %d, this coordinator %d; run one build on every node",
			spec.Name, spec.Addr, h.Frame, FrameVersion)
	}
	if h.L != l {
		return fmt.Errorf("cluster: node %q indexes L=%d, coordinator expects %d", spec.Name, h.L, l)
	}
	if h.Norm != ext.Mode().String() {
		return fmt.Errorf("cluster: node %q normalizes %q, coordinator %q", spec.Name, h.Norm, ext.Mode().String())
	}
	if h.SeriesLen != ext.Len() {
		return fmt.Errorf("cluster: node %q serves a %d-point series, coordinator holds %d", spec.Name, h.SeriesLen, ext.Len())
	}
	if shardSetKey(h.Shards) != shardSetKey(spec.Shards) {
		return fmt.Errorf("cluster: node %q serves shards %v, topology assigns %v", spec.Name, h.Shards, spec.Shards)
	}
	return nil
}

// verifyRemote is the rejoin gate the membership sweep applies before
// marking a previously down node up again: the identity checks plus
// agreement with the established cluster view (index shape and the
// group's window count) — a node restarted over a different file must
// not serve divergent bytes.
func (c *Coordinator) verifyRemote(h NodeHealth, ow *owner) error {
	if err := checkNodeIdentity(h, ow.spec, c.ext, c.l); err != nil {
		return err
	}
	if h.TotalShards != c.total {
		return fmt.Errorf("cluster: node %q serves a different index (%d shards vs %d)",
			ow.spec.Name, h.TotalShards, c.total)
	}
	if ow.g != nil && ow.g.windows > 0 && h.Windows != ow.g.windows {
		return fmt.Errorf("cluster: node %q serves %d windows, its replica group serves %d",
			ow.spec.Name, h.Windows, ow.g.windows)
	}
	return nil
}

// health fetches and decodes the node's /healthz.
func (r *remote) health(ctx context.Context) (NodeHealth, error) {
	var h NodeHealth
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/healthz", nil)
	if err != nil {
		return h, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("healthz: %s", resp.Status)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, wire.MaxBodyBytes)).Decode(&h); err != nil {
		return h, fmt.Errorf("healthz: %w", err)
	}
	return h, nil
}

// call sends one shard RPC and decodes the answer, or the node's
// refusal in its words. An answer that does not decode fails the
// attempt over. A traced caller's span grafts the node's returned
// subtree; the answer returned holds no Trace, whose bytes were the
// stream's.
func (r *remote) call(ctx context.Context, q Request) (Answer, error) {
	sp := obs.SpanFrom(ctx)
	q.Trace = sp != nil
	s, status, body, err := r.exchange(ctx, &q)
	if err != nil {
		return Answer{}, fmt.Errorf("shard %s: %w", q.Kind, err)
	}
	defer func() { // body is the stream's buffer until then
		select {
		case r.idle <- s:
		default:
			s.Close()
		}
	}()
	if status != http.StatusOK {
		return Answer{}, fmt.Errorf("shard %s: %s", q.Kind, refusal(fmt.Sprint("status ", status), body))
	}
	a, err := ParseAnswer(body)
	if err == nil && sp != nil && len(a.Trace) > 0 {
		tr := new(obs.Span)
		if err = json.Unmarshal(a.Trace, tr); err == nil {
			sp.Attach(tr)
		}
	}
	if err != nil {
		return Answer{}, fmt.Errorf("shard %s: answer: %w", q.Kind, err)
	}
	a.Trace = nil
	return a, nil
}

// exchange sends q on an idle stream, or a fresh one when there is
// none. A stream that ends before any answer byte, or a refused dial, is
// retried once on a fresh stream: every shard RPC is a read, so nothing
// runs twice; replica failover handles the rest.
func (r *remote) exchange(ctx context.Context, q *Request) (s *Stream, status int, body []byte, err error) {
	select {
	case s = <-r.idle:
	default:
	}
	for retried := false; ; retried, s = true, nil {
		if s == nil {
			s, err = DialStream(ctx, r.client, r.base)
		}
		if err == nil {
			status, body, err = s.Exchange(ctx, q.AppendFrame)
		}
		if err == nil || retried || ctx.Err() != nil || !errors.Is(err, errUnanswered) &&
			!errors.Is(err, syscall.ECONNREFUSED) && !errors.Is(err, syscall.ECONNRESET) {
			return s, status, body, err
		}
	}
}

// refusal is a refusal body's error text, or status when it has none.
func refusal(status string, body []byte) string {
	var e refusalBody
	if json.Unmarshal(body, &e) != nil || e.Error == "" {
		return status
	}
	return e.Error
}

// Package cluster is the distributed query tier over a saved sharded
// TS-Index (TSSH v4): one saved index, many processes. A **node** opens
// only its assigned shard subset — selective mmap via the segment
// table, O(assigned) cost — and serves the shard RPC (rpc.go's
// /shard/* endpoints). A **coordinator** fans each query across the
// topology's replica groups through a pooled HTTP client with per-node
// timeouts and recombines with the same deterministic merges the local
// fan-out uses, so a cluster answers byte-identically to a single local
// engine: range-style paths k-way merge the groups' disjoint
// start-sorted lists, top-k runs two-phase with a shared bound (the
// seed group's k-th distance is broadcast to prune the rest — exactly
// the bound one local shard's traversal publishes to another, so the
// merged result is unchanged).
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
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
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
	// Client overrides the HTTP client (tests inject failure modes via
	// the Chaos transport); nil selects a client with a pooled
	// transport owned by the coordinator.
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
	client              *http.Client
	ownTransport        *http.Transport
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
	c := &Coordinator{ext: ext, l: l, replicas: topo.R(),
		timeout: o.Timeout, hedgeDelay: o.HedgeDelay, client: o.Client}
	if c.client == nil {
		c.ownTransport = &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}
		c.client = &http.Client{Transport: c.ownTransport}
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
		ow := &owner{spec: spec, b: &remote{name: spec.Name, base: spec.Addr, client: c.client}}
		h, err := dialHealth(ctx, ow.b, o.Timeout)
		if err != nil {
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
		interval := o.RefreshInterval
		if interval == 0 {
			interval = defaultRefresh
		}
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

// Close stops the membership sweep and drops the coordinator's idle
// connections. No query may run during or after it.
func (c *Coordinator) Close() error {
	if c.stopSweep != nil {
		c.stopSweep()
		<-c.sweepDone
		c.stopSweep = nil
	}
	if c.ownTransport != nil {
		c.ownTransport.CloseIdleConnections()
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
// index.
func (c *Coordinator) Search(ctx context.Context, q []float64, eps float64) ([]series.Match, error) {
	ms, _, err := c.SearchStats(ctx, q, eps)
	return ms, err
}

// statsResult carries one group's range-search answer through the
// generic fan-out.
type statsResult struct {
	ms []series.Match
	st core.Stats
}

// SearchStats is Search with traversal counters summed across every
// group's shards.
func (c *Coordinator) SearchStats(ctx context.Context, q []float64, eps float64) ([]series.Match, core.Stats, error) {
	per, err := fanOut(ctx, c, -1, func(ctx context.Context, b *remote) (statsResult, error) {
		ms, st, err := b.SearchStatsCtx(ctx, q, eps)
		return statsResult{ms, st}, err
	})
	if err != nil {
		return nil, core.Stats{}, err
	}
	msp := obs.SpanFrom(ctx).StartChild("merge")
	lists := make([][]series.Match, len(per))
	var st core.Stats
	for i, r := range per {
		lists[i] = r.ms
		st = shard.AddStats(st, r.st)
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
		return b.SearchTopKCtx(ctx, q, k, math.Inf(1))
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
		return b.SearchTopKCtx(ctx, q, k, bound)
	})
	if err != nil {
		return nil, err
	}
	lists[seed] = first
	return shard.MergeTopK(lists, k), nil
}

// SearchPrefix answers a query shorter than the indexed length: the
// truncated-bound tree halves fan across the groups, and the tail
// windows that exist only at the shorter length — which belong to no
// shard — are scanned exactly once, here at the coordinator (it holds
// the full series).
func (c *Coordinator) SearchPrefix(ctx context.Context, q []float64, eps float64) ([]series.Match, error) {
	if err := core.ValidatePrefix(q, c.l, c.ext.Mode()); err != nil {
		return nil, err
	}
	per, err := fanOut(ctx, c, -1, func(ctx context.Context, b *remote) ([]series.Match, error) {
		return b.SearchPrefixTreeCtx(ctx, q, eps)
	})
	if err != nil {
		return nil, err
	}
	return core.ScanPrefixTail(c.ext, c.l, q, eps, shard.MergeByStart(per)), nil
}

// --- the shard-RPC client ---

// remote speaks the shard RPC to one node over HTTP; its answers keep
// the contract internal/shard's package comment states. ctx deadlines
// abort the request (the transport closes the connection), so a dead
// node costs one timeout, never a hang.
type remote struct {
	name   string
	base   string
	client *http.Client
}

// dialHealth fetches a node's health document under the caller's ctx
// bounded by the per-node timeout — the reachability half of the open
// handshake (identity cross-checks are checkNodeIdentity's).
func dialHealth(ctx context.Context, rm *remote, timeout time.Duration) (NodeHealth, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	h, err := rm.health(ctx)
	if err != nil {
		return h, fmt.Errorf("node %q (%s): %w", rm.name, rm.base, err)
	}
	return h, nil
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
	resp, err := r.do(ctx, http.MethodGet, r.base+"/healthz", nil)
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

// do issues one HTTP request, retrying exactly once on a transport-
// level connection error (refused or reset — the request failed before
// any byte was processed, so the retry cannot double-execute
// anything; every shard RPC is a read). This absorbs the transient
// blips a restarting listener or a dropped idle connection causes even
// at R=1; replica failover handles everything beyond it.
func (r *remote) do(ctx context.Context, method, url string, body []byte) (*http.Response, error) {
	for retried := false; ; retried = true {
		req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", FrameContentType)
		}
		resp, err := r.client.Do(req)
		if err == nil || retried || !isConnRefused(err) || ctx.Err() != nil {
			return resp, err
		}
	}
}

// isConnRefused reports a transport-level connection failure that
// happened before the server processed any request byte — the only
// failure an idempotent RPC retries on the same node.
func isConnRefused(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET)
}

// call sends one shard RPC and decodes the answer frame, translating a
// non-200 answer into the node's own error text. The body is read up to
// wire.MaxBodyBytes and a malformed frame is an error, so a node that
// answers garbage fails the attempt over — never a panic, never a short
// answer. A traced caller's span grafts the node's returned subtree.
func (r *remote) call(ctx context.Context, q Request) ([]series.Match, core.Stats, error) {
	sp := obs.SpanFrom(ctx)
	q.Trace = sp != nil
	path := q.Kind.Path()
	resp, err := r.do(ctx, http.MethodPost, r.base+path, q.AppendFrame(nil))
	if err != nil {
		return nil, core.Stats{}, err
	}
	defer resp.Body.Close()
	body, err := wire.ReadBody(resp.Body, resp.ContentLength, nil)
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) != nil || e.Error == "" {
			e.Error = resp.Status
		}
		return nil, core.Stats{}, fmt.Errorf("%s: %s", path, e.Error)
	}
	var a Answer
	if err == nil {
		a, err = ParseAnswer(body)
	}
	if err == nil && sp != nil && len(a.Trace) > 0 {
		tr := new(obs.Span)
		if err = json.Unmarshal(a.Trace, tr); err == nil {
			sp.Attach(tr)
		}
	}
	if err != nil {
		return nil, core.Stats{}, fmt.Errorf("%s: answer: %w", path, err)
	}
	if a.Stats == nil {
		return a.Matches, core.Stats{}, nil
	}
	return a.Matches, *a.Stats, nil
}

// SearchStatsCtx asks the node for a range search's matches and
// counters.
func (r *remote) SearchStatsCtx(ctx context.Context, q []float64, eps float64) ([]series.Match, core.Stats, error) {
	return r.call(ctx, Request{Kind: KindSearch, Eps: eps, Query: q})
}

// SearchTopKCtx asks the node for its k nearest under the seeded
// bound.
func (r *remote) SearchTopKCtx(ctx context.Context, q []float64, k int, bound float64) ([]series.Match, error) {
	ms, _, err := r.call(ctx, Request{Kind: KindTopK, K: k, Bound: bound, Query: q})
	return ms, err
}

// SearchPrefixTreeCtx asks the node for the tree half of a prefix
// search.
func (r *remote) SearchPrefixTreeCtx(ctx context.Context, q []float64, eps float64) ([]series.Match, error) {
	ms, _, err := r.call(ctx, Request{Kind: KindPrefix, Eps: eps, Query: q})
	return ms, err
}

package cluster

// Cached cluster membership. Each owner holds one liveness fact — up or
// down, the error that put it down, and when the fact was written — and
// four events write it: the open handshake, the background sweep's
// /healthz probe (started by OpenCoordinator, stopped by Close), a
// failed query attempt (down, with the attempt's error), and a
// successful attempt on a node that was down (up). The attempt order
// (failover.go) and Coordinator.Health both read it, so a /healthz hit
// on the coordinator never blocks on N network probes, and CheckedAt
// tells the consumer how fresh each fact is.

import (
	"context"
	"sync"
	"time"
)

// mark writes the owner's liveness fact, stamped now.
func (ow *owner) mark(alive bool, err error) {
	ow.mu.Lock()
	defer ow.mu.Unlock()
	ow.alive = alive
	ow.errMsg = ""
	if err != nil {
		ow.errMsg = err.Error()
	}
	ow.checkedAt = time.Now()
}

// markUp records a successful attempt: a node that was down is up
// again; on a node already up the fact is left as written.
func (ow *owner) markUp() {
	ow.mu.Lock()
	defer ow.mu.Unlock()
	if !ow.alive {
		ow.alive, ow.errMsg, ow.checkedAt = true, "", time.Now()
	}
}

// fact returns the owner's liveness fact.
func (ow *owner) fact() (alive bool, errMsg string, checkedAt time.Time) {
	ow.mu.Lock()
	defer ow.mu.Unlock()
	return ow.alive, ow.errMsg, ow.checkedAt
}

// Sweep probes every node's /healthz once, concurrently (each under
// probeTimeout), and writes each node's liveness fact: up when it
// answers and still serves the right index, down otherwise. The
// background refresher calls this on its interval; tests and callers
// wanting a fresh view now can call it directly.
func (c *Coordinator) Sweep(ctx context.Context) {
	var wg sync.WaitGroup
	for _, ow := range c.owners {
		wg.Add(1)
		//tsvet:ignore network-bound health probes must not occupy CPU executor workers
		go func() {
			defer wg.Done()
			c.probe(ctx, ow)
		}()
	}
	wg.Wait()
}

// probe refreshes one node's liveness fact.
func (c *Coordinator) probe(ctx context.Context, ow *owner) {
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	h, err := ow.b.health(pctx)
	if err == nil {
		// A node that answers but serves the wrong index (restarted with
		// a different file, misconfigured replacement) must not rejoin.
		err = c.verifyRemote(h, ow)
	}
	ow.mark(err == nil, err)
}

// sweepLoop is the background membership refresher.
func (c *Coordinator) sweepLoop(ctx context.Context, interval time.Duration) {
	defer close(c.sweepDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.Sweep(ctx)
		}
	}
}

// Health returns the cached per-node membership view: each node's
// liveness fact as last written by the open, the sweep or a query
// attempt, never probed inline here. Use Sweep first to force a fresh
// view.
func (c *Coordinator) Health() []PeerStatus {
	out := make([]PeerStatus, len(c.owners))
	for i, ow := range c.owners {
		alive, errMsg, checkedAt := ow.fact()
		out[i] = PeerStatus{
			Name: ow.spec.Name, Addr: ow.spec.Addr,
			Shards: append([]int(nil), ow.spec.Shards...), Windows: ow.g.windows,
			Alive: alive, Error: errMsg, CheckedAt: checkedAt,
		}
	}
	return out
}

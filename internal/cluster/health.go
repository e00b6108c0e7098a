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
	probeAll(ctx, c.owners, probeTimeout, func(i int, h NodeHealth, err error) {
		ow := c.owners[i]
		if err == nil {
			// A node that answers but serves the wrong index (restarted
			// with a different file, misconfigured replacement) must not
			// rejoin.
			err = c.verifyRemote(h, ow)
		}
		ow.mark(err == nil, err)
	})
}

// probeAll fetches every owner's /healthz at once, each under timeout,
// and hands owner i's answer to done(i, …) on its probe's goroutine, as
// it arrives; it returns once every done has. The open and the sweep
// both probe through it, so k unreachable nodes cost one timeout.
func probeAll(ctx context.Context, owners []*owner, timeout time.Duration, done func(i int, h NodeHealth, err error)) {
	var wg sync.WaitGroup
	for i, ow := range owners {
		wg.Add(1)
		//tsvet:ignore network-bound health probes must not occupy CPU executor workers
		go func() {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			h, err := ow.b.health(pctx)
			done(i, h, err)
		}()
	}
	wg.Wait()
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

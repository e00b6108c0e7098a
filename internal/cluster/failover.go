package cluster

// Per-unit failover and hedging. The coordinator's fan-out unit is one
// replica group (a shard set with R interchangeable owners); runUnit
// turns "call one node" into "get this shard set answered":
//
//   - Attempt order prefers owners whose liveness fact (health.go) is
//     up; known-down owners drop to the back as a last resort, so a
//     dead node stops absorbing first-attempt latency.
//   - An attempt that errors or times out (per-node Timeout) marks its
//     node down and fails over to the next replica instead of failing
//     the query; a successful attempt on a down node marks it up.
//   - With hedging enabled, a second replica is issued the same unit
//     after HedgeDelay; the first response wins and the loser is
//     canceled through its context — tail latency from a slow-but-
//     alive node is bounded by delay + the sibling's latency.
//
// Replicas open identical shard subsets of the same saved index (the
// coordinator cross-checks at open and on rejoin), so whichever owner
// answers, the bytes — matches and Stats both — are the same, and the
// merged result stays byte-identical to a local engine.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"twinsearch/internal/obs"
)

// candidates returns the group's owners in attempt order: live owners
// first (topology order), then the known-down ones — still tried when
// nothing better is left, because a stale "down" fact must not fail a
// query a node could have answered.
func (g *group) candidates() []*owner {
	pref := make([]*owner, 0, len(g.owners))
	var rest []*owner
	for _, ow := range g.owners {
		if alive, _, _ := ow.fact(); alive {
			pref = append(pref, ow)
		} else {
			rest = append(rest, ow)
		}
	}
	return append(pref, rest...)
}

// runUnit executes one query unit against group g with replica
// failover, liveness marking, and optional hedging. call must be
// idempotent and side-effect-free until it returns (hedged attempts
// run concurrently); the winning attempt's value is returned.
func runUnit[T any](ctx context.Context, c *Coordinator, g *group, call func(ctx context.Context, b *remote) (T, error)) (T, error) {
	var zero T
	cands := g.candidates()
	// Traced queries grow one "unit" span per replica group; each
	// attempt (primary, failover, hedge) becomes a child annotated with
	// the node tried, its liveness fact seen at launch, and the
	// outcome. The winning attempt's context carries its span, so the
	// node's returned subtree lands under the attempt that produced the
	// answer.
	usp := obs.SpanFrom(ctx).StartChild("unit")
	if usp != nil {
		usp.Set("shards", fmt.Sprint(g.shards))
		usp.Set("replicas", len(cands))
	}
	defer usp.End()
	type result struct {
		ow  *owner
		sp  *obs.Span
		v   T
		err error
	}
	resCh := make(chan result, len(cands))
	cancels := make([]context.CancelFunc, 0, len(cands))
	defer func() {
		// Winner decided (or unit abandoned): cancel every other
		// attempt — the hedging loser's RPC is torn down through its
		// context, not left to run out its timeout.
		for _, cancel := range cancels {
			cancel()
		}
	}()
	next := 0
	launch := func(kind string) {
		ow := cands[next]
		next++
		asp := usp.StartChild("attempt")
		if asp != nil {
			asp.Set("node", ow.spec.Name)
			asp.Set("kind", kind)
			alive, _, _ := ow.fact()
			asp.Set("alive", alive)
		}
		actx, cancel := context.WithTimeout(ctx, c.timeout)
		actx = obs.WithSpan(actx, asp)
		cancels = append(cancels, cancel)
		//tsvet:ignore network-bound replica attempts must not occupy CPU executor workers
		go func() {
			v, err := call(actx, ow.b)
			resCh <- result{ow: ow, sp: asp, v: v, err: err}
		}()
	}
	launch("primary")
	var hedge <-chan time.Time
	if c.hedgeDelay > 0 && next < len(cands) {
		t := time.NewTimer(c.hedgeDelay)
		defer t.Stop()
		hedge = t.C
	}
	pending := 1
	var attemptErrs []error
	for {
		select {
		case r := <-resCh:
			pending--
			if r.err == nil {
				r.ow.markUp()
				if r.sp != nil {
					r.sp.Set("outcome", "ok")
					r.sp.Set("won", true)
					r.sp.End()
					usp.Set("winner", r.ow.spec.Name)
				}
				return r.v, nil
			}
			if ctx.Err() != nil {
				// The caller gave up; the failure says nothing about
				// the node, and the unit is over.
				return zero, ctx.Err()
			}
			r.ow.mark(false, r.err)
			if r.sp != nil {
				r.sp.Set("outcome", "error")
				r.sp.Set("error", r.err.Error())
				r.sp.End()
			}
			attemptErrs = append(attemptErrs, fmt.Errorf("node %q: %w", r.ow.spec.Name, r.err))
			if next < len(cands) {
				launch("failover")
				pending++
			} else if pending == 0 {
				return zero, fmt.Errorf("cluster: shards %v: all %d replica(s) failed: %w",
					g.shards, len(cands), errors.Join(attemptErrs...))
			}
		case <-hedge:
			hedge = nil
			if next < len(cands) {
				launch("hedge")
				pending++
			}
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
}

// fanOut runs one unit per replica group concurrently (each with
// failover and hedging via runUnit) and collects results in group
// order. skip names a group index to leave at T's zero value without
// any attempt (-1 for none) — the top-k second phase already holds the
// seed group's answer. The lowest-indexed unit error is returned,
// deterministic whichever group failed first in time.
func fanOut[T any](ctx context.Context, c *Coordinator, skip int, call func(ctx context.Context, b *remote) (T, error)) ([]T, error) {
	out := make([]T, len(c.groups))
	errs := make([]error, len(c.groups))
	var wg sync.WaitGroup
	for gi, g := range c.groups {
		if gi == skip {
			continue
		}
		wg.Add(1)
		//tsvet:ignore network-bound fan-out must not occupy CPU executor workers
		go func() {
			defer wg.Done()
			out[gi], errs[gi] = runUnit(ctx, c, g, call)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

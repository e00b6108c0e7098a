// Package exec implements the query executor shared by every parallel
// search path in the engine. Every sharded fan-out (the build's and
// each query's) enqueues one work unit per shard — that shard's whole
// traversal — into one FIFO queue, so units run in submission order and
// the units of concurrent queries share one pool of workers. Workers
// are spawned on demand up to the configured limit, park when the queue
// is empty, and exit after a short idle period, so an executor that
// isn't answering queries holds no goroutines at all.
//
// Units must never block on other units or on Group.Wait; every unit
// is pure computation that runs to completion. That discipline is what
// makes the pool deadlock-free with any worker count, including 1.
package exec

import (
	"runtime"
	"slices"
	"sync"
	"time"
)

// idleTimeout is how long a worker with nothing to run stays parked
// before exiting.
const idleTimeout = 100 * time.Millisecond

// task is one unit of work bound to its completion group.
type task struct {
	g  *Group
	fn func(*Ctx)
}

// Executor schedules work units over at most Workers() concurrent
// workers. The zero value is not usable; construct with New.
type Executor struct {
	n       int
	mu      sync.Mutex
	queue   []task          // FIFO: units waiting for a worker, from head on
	head    int             // index of the oldest waiting unit in queue
	running int             // live worker goroutines
	idle    []chan struct{} // parked workers, woken LIFO (warmest first)
}

// New returns an executor with the given worker limit; non-positive
// selects GOMAXPROCS. Construction is cheap — no goroutines exist
// until work is submitted.
func New(workers int) *Executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Executor{n: workers}
}

// Workers returns the executor's worker limit.
func (e *Executor) Workers() int { return e.n }

var defaultExec = sync.OnceValue(func() *Executor { return New(0) })

// Default returns the process-wide executor (GOMAXPROCS workers),
// shared by callers that don't carry their own.
func Default() *Executor { return defaultExec() }

// Group tracks the completion of a set of units. Many groups may be in
// flight on one executor; their units interleave over the same workers
// in submission order.
type Group struct {
	e  *Executor
	wg sync.WaitGroup
}

// NewGroup returns an empty completion group on this executor.
func (e *Executor) NewGroup() *Group { return &Group{e: e} }

// Ctx is what a unit is handed; it carries nothing and is always nil.
type Ctx struct{}

// Go enqueues one unit into the group and wakes the most recently
// parked worker, or starts one if the pool is below its limit. Busy
// workers drain the queue before parking. Safe from any goroutine.
func (g *Group) Go(fn func(*Ctx)) {
	g.wg.Add(1)
	e := g.e
	e.mu.Lock()
	e.queue = append(e.queue, task{g: g, fn: fn})
	switch n := len(e.idle); {
	case n > 0:
		ch := e.idle[n-1]
		e.idle = e.idle[:n-1]
		e.mu.Unlock()
		ch <- struct{}{} // buffered; a popped worker always drains it
	case e.running < e.n:
		e.running++
		e.mu.Unlock()
		go e.work()
	default:
		e.mu.Unlock()
	}
}

// Wait blocks until every unit enqueued into the group has completed.
// It must not be called from inside a unit.
func (g *Group) Wait() { g.wg.Wait() }

// ForEach runs fn(0..n-1) as n units and waits for all of them — the
// fork-join convenience for flat fan-outs (index builds, per-shard
// probes).
func (e *Executor) ForEach(n int, fn func(int)) {
	g := e.NewGroup()
	for i := 0; i < n; i++ {
		g.Go(func(*Ctx) { fn(i) })
	}
	g.Wait()
}

// work runs queued units front first until the queue is empty, then
// parks until Go wakes it; it returns after idling for idleTimeout.
func (e *Executor) work() {
	ch := make(chan struct{}, 1)
	timer := time.NewTimer(idleTimeout)
	e.mu.Lock()
	for {
		for e.head < len(e.queue) {
			t := e.queue[e.head]
			e.queue[e.head] = task{}
			if e.head++; e.head == len(e.queue) {
				e.queue, e.head = e.queue[:0], 0
			}
			e.mu.Unlock()
			t.fn(nil)
			t.g.wg.Done()
			e.mu.Lock()
		}
		e.idle = append(e.idle, ch)
		e.mu.Unlock()
		timer.Reset(idleTimeout) // no stale expiry survives Reset (Go ≥ 1.23)
		select {
		case <-ch:
		case <-timer.C:
			// Timed out: deregister and exit, unless a waker popped ch
			// concurrently — then its signal is in flight and a unit is
			// waiting for this worker.
			e.mu.Lock()
			if i := slices.Index(e.idle, ch); i >= 0 {
				e.idle = slices.Delete(e.idle, i, i+1)
				e.running--
				e.mu.Unlock()
				return
			}
			e.mu.Unlock()
			<-ch
		}
		e.mu.Lock()
	}
}

// liveWorkers reports the current worker goroutine count (for tests).
func (e *Executor) liveWorkers() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.running
}

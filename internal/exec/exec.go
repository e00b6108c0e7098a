// Package exec implements the work-stealing query executor shared by
// every parallel search path in the engine. Every sharded fan-out (the
// build's and each query's) enqueues fine-grained work units here
// instead of spawning goroutines per call — one scheduler decides where
// work runs, so a hot shard's units spread across idle workers instead
// of serializing behind one goroutine (the imbalance MESSI-style work
// queues remove from iSAX fan-outs).
//
// Structure: a fixed set of worker slots, each with its own deque. The
// worker owning a slot pushes and pops at the tail (LIFO — a unit
// spawned by a traversal is cache-hot), and idle workers steal from
// the head of a peer's deque (FIFO — the oldest unit is typically the
// largest remaining piece of a split). Workers are spawned on demand
// up to the configured limit and exit after a short idle period, so an
// executor that isn't answering queries holds no goroutines at all.
//
// Units must never block on other units or on Group.Wait; every unit
// is pure computation that runs to completion. That discipline is what
// makes the pool deadlock-free with any worker count, including 1.
package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// idleTimeout is how long a worker with nothing to run stays parked
// before exiting. Submissions respawn workers on demand, so the
// timeout trades a goroutine-spawn on the next burst against holding
// parked goroutines through quiet periods.
const idleTimeout = 100 * time.Millisecond

// task is one unit of work bound to its completion group.
type task struct {
	g  *Group
	fn func(*Ctx)
}

// queue is one slot's deque. The owner pushes and pops at the tail;
// thieves pop at the head. A plain mutex suffices: queues are short,
// critical sections are a few instructions, and the worker count is a
// small multiple of the core count.
type queue struct {
	mu   sync.Mutex
	ts   []task
	head int
}

func (q *queue) push(t task) {
	q.mu.Lock()
	q.ts = append(q.ts, t)
	q.mu.Unlock()
}

func (q *queue) popTail() (task, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == len(q.ts) {
		return task{}, false
	}
	n := len(q.ts) - 1
	t := q.ts[n]
	q.ts[n] = task{}
	q.ts = q.ts[:n]
	if q.head == len(q.ts) {
		q.ts, q.head = q.ts[:0], 0
	}
	return t, true
}

func (q *queue) popHead() (task, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == len(q.ts) {
		return task{}, false
	}
	t := q.ts[q.head]
	q.ts[q.head] = task{}
	q.head++
	if q.head == len(q.ts) {
		q.ts, q.head = q.ts[:0], 0
	}
	return t, true
}

func (q *queue) empty() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.head == len(q.ts)
}

// Executor schedules work units over at most Workers() concurrent
// workers. The zero value is not usable; construct with New.
type Executor struct {
	n      int
	queues []queue
	next   atomic.Uint64 // round-robin cursor for external submissions
	steals atomic.Uint64 // lifetime cross-queue steals, for /metrics

	mu        sync.Mutex
	running   int             // live worker goroutines
	freeSlots []int           // queue slots with no worker attached
	idle      []chan struct{} // parked workers, woken LIFO (warmest first)
}

// New returns an executor with the given worker limit; non-positive
// selects GOMAXPROCS. Construction is cheap — no goroutines exist
// until work is submitted.
func New(workers int) *Executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Executor{n: workers, queues: make([]queue, workers)}
	e.freeSlots = make([]int, workers)
	for i := range e.freeSlots {
		e.freeSlots[i] = i
	}
	return e
}

// Workers returns the executor's worker limit.
func (e *Executor) Workers() int { return e.n }

// Steals returns the lifetime count of cross-queue steals: units a
// worker popped from a peer's deque because its own ran dry. A high
// rate relative to units run means skewed partitions (one hot shard
// feeding everyone else).
func (e *Executor) Steals() uint64 { return e.steals.Load() }

var (
	defaultOnce sync.Once
	defaultExec *Executor
)

// Default returns the process-wide executor (GOMAXPROCS workers),
// shared by callers that don't carry their own.
func Default() *Executor {
	defaultOnce.Do(func() { defaultExec = New(0) })
	return defaultExec
}

// Group tracks the completion of a set of units, including units they
// spawn transitively via Ctx.Go. Many groups may be in flight on one
// executor; their units interleave over the same workers.
type Group struct {
	e      *Executor
	wg     sync.WaitGroup
	steals atomic.Uint64 // units of this group stolen across queues
}

// Steals returns how many of the group's units were stolen by a worker
// other than the one whose queue they were submitted to — the per-query
// work-stealing figure the trace layer reports.
func (g *Group) Steals() uint64 { return g.steals.Load() }

// NewGroup returns an empty completion group on this executor.
func (e *Executor) NewGroup() *Group { return &Group{e: e} }

// Go enqueues one unit into the group. Safe from any goroutine.
func (g *Group) Go(fn func(*Ctx)) {
	g.wg.Add(1)
	g.e.submit(-1, task{g: g, fn: fn})
}

// Wait blocks until every unit enqueued into the group — including
// units spawned from inside other units — has completed. It must not
// be called from inside a unit.
func (g *Group) Wait() { g.wg.Wait() }

// Ctx is handed to every running unit; it identifies the worker slot
// so spawned sub-units land on the local deque.
type Ctx struct {
	e    *Executor
	slot int
	g    *Group
}

// Go spawns a sub-unit into the same group, pushed onto this worker's
// own deque: the spawner keeps working on it next (LIFO) unless an
// idle peer steals it first — the work-stealing split point.
func (c *Ctx) Go(fn func(*Ctx)) {
	c.g.wg.Add(1)
	c.e.submit(c.slot, task{g: c.g, fn: fn})
}

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

// submit enqueues t on the given slot (or round-robin when slot < 0)
// and ensures a worker will run it.
func (e *Executor) submit(slot int, t task) {
	if slot < 0 {
		slot = int(e.next.Add(1) % uint64(e.n))
	}
	e.queues[slot].push(t)
	e.wake()
}

// wake gets one more worker looking at the queues: an idle one if any
// is parked, a fresh one if the pool is below its limit, nothing if
// every worker is already busy (they scan all queues before parking,
// so the new task cannot be overlooked).
func (e *Executor) wake() {
	e.mu.Lock()
	if n := len(e.idle); n > 0 {
		ch := e.idle[n-1]
		e.idle = e.idle[:n-1]
		e.mu.Unlock()
		ch <- struct{}{} // buffered; a popped worker always drains it
		return
	}
	if e.running < e.n {
		e.running++
		slot := e.freeSlots[len(e.freeSlots)-1]
		e.freeSlots = e.freeSlots[:len(e.freeSlots)-1]
		e.mu.Unlock()
		go e.work(slot)
		return
	}
	e.mu.Unlock()
}

func (e *Executor) work(slot int) {
	for {
		t, ok := e.grab(slot)
		if !ok {
			if !e.park(slot) {
				return
			}
			continue
		}
		e.run(slot, t)
	}
}

// grab pops local work LIFO, then steals FIFO from peers.
func (e *Executor) grab(slot int) (task, bool) {
	if t, ok := e.queues[slot].popTail(); ok {
		return t, true
	}
	for i := 1; i < e.n; i++ {
		if t, ok := e.queues[(slot+i)%e.n].popHead(); ok {
			t.g.steals.Add(1)
			e.steals.Add(1)
			return t, true
		}
	}
	return task{}, false
}

func (e *Executor) run(slot int, t task) {
	defer t.g.wg.Done()
	t.fn(&Ctx{e: e, slot: slot, g: t.g})
}

// park blocks the worker until new work arrives or the idle timeout
// passes; it returns false when the worker should exit. The recheck
// under e.mu closes the race with submit: a task pushed after this
// worker's last failed grab is either seen by the recheck, or its wake
// finds this worker on the idle list (both paths serialize on e.mu).
func (e *Executor) park(slot int) bool {
	e.mu.Lock()
	if e.anyWork() {
		e.mu.Unlock()
		return true
	}
	ch := make(chan struct{}, 1)
	e.idle = append(e.idle, ch)
	e.mu.Unlock()

	timer := time.NewTimer(idleTimeout)
	select {
	case <-ch:
		timer.Stop()
		return true
	case <-timer.C:
	}

	// Timed out: deregister, unless a waker popped us concurrently —
	// then its signal is in flight and a task is waiting for us.
	e.mu.Lock()
	for i, c := range e.idle {
		if c == ch {
			e.idle = append(e.idle[:i], e.idle[i+1:]...)
			e.running--
			e.freeSlots = append(e.freeSlots, slot)
			e.mu.Unlock()
			return false
		}
	}
	e.mu.Unlock()
	<-ch
	return true
}

func (e *Executor) anyWork() bool {
	for i := range e.queues {
		if !e.queues[i].empty() {
			return true
		}
	}
	return false
}

// liveWorkers reports the current worker goroutine count (for tests).
func (e *Executor) liveWorkers() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.running
}

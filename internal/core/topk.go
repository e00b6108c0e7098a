package core

import (
	"math"
	"sync/atomic"

	"twinsearch/internal/series"
)

// SharedBound is a monotonically tightening upper bound on the global
// k-th best distance, shared by concurrent top-k traversals over
// different shards of one position space (internal/shard). Each
// traversal publishes its local k-th distance once its result heap
// fills — any k real candidates bound the global k-th from above — and
// every traversal prunes nodes whose Eq. 2 lower bound strictly exceeds
// the shared value. Pruning is only ever on strict inequality, so the
// merged top-k is deterministic regardless of publication timing.
type SharedBound struct {
	bits atomic.Uint64
}

// NewSharedBound returns a bound initialized to +Inf (nothing prunable).
func NewSharedBound() *SharedBound {
	b := &SharedBound{}
	b.bits.Store(math.Float64bits(math.Inf(1)))
	return b
}

// Load returns the current bound.
func (b *SharedBound) Load() float64 {
	return math.Float64frombits(b.bits.Load())
}

// Tighten lowers the bound to d when d is smaller; larger values are
// ignored (the bound never loosens).
func (b *SharedBound) Tighten(d float64) {
	for {
		old := b.bits.Load()
		if math.Float64frombits(old) <= d {
			return
		}
		if b.bits.CompareAndSwap(old, math.Float64bits(d)) {
			return
		}
	}
}

// topKPrealloc caps the result heap's up-front capacity: k comes off
// the wire unbounded, and every shard's traversal of every query
// allocates one.
const topKPrealloc = 1024

// topK is one query's running answer inside one top-k traversal — the
// single leaf-scoring and admission step shared by the best-first
// descent and the append tail scan (ScanTailTopK), so both admit
// byte-identical sets.
//
// best holds the k nearest candidates so far as a max-heap under the
// (dist, start) total order, worst on top. st counts the traversal's
// work:
// NodesVisited is every node whose Eq. 2 bound was evaluated,
// NodesPruned those never expanded (abandoned at evaluation, or still
// queued when the traversal stopped), Abandons the candidates the
// kernel rejected against the limit.
type topK struct {
	k      int
	best   []worstFirst
	shared *SharedBound
	st     Stats
}

func newTopK(k int, shared *SharedBound) topK {
	return topK{k: k, best: make([]worstFirst, 0, min(k, topKPrealloc)+1), shared: shared}
}

// limit returns the current rejection threshold — the smaller of the
// shared bound and the local k-th best distance; +Inf while nothing can
// be discarded yet (a +Inf limit never prunes and never abandons).
// Anything strictly farther cannot reach the merged top-k: k real
// candidates at or below the limit already exist.
func (t *topK) limit() float64 {
	l := math.Inf(1)
	if t.shared != nil {
		l = t.shared.Load()
	}
	if len(t.best) >= t.k && t.best[0].Dist < l {
		l = t.best[0].Dist
	}
	return l
}

// offer verifies the windows at starts the way threshold search
// verifies — one kernel sweep, each window abandoned at its next check
// point once it strictly exceeds the limit — and admits a survivor iff
// its exact distance beats the current worst under (dist, start). The
// limit is read once for the sweep and again per window: a distance it
// has come to exclude meanwhile counts as the abandon a kernel call
// made at that moment would have reported.
func (t *topK) offer(v *series.Verifier, starts []int32) {
	for j, d := range v.Sweep(starts, t.limit()) {
		t.st.Candidates++
		if d < 0 || d > t.limit() {
			t.st.Abandons++
			continue
		}
		m := worstFirst{Start: int(starts[j]), Dist: d}
		if len(t.best) >= t.k {
			if !t.best[0].before(m) {
				continue // not strictly better than the current worst
			}
			t.best, _ = heapPop(t.best)
		}
		t.best = heapPush(t.best, m)
		if t.shared != nil && len(t.best) >= t.k {
			t.shared.Tighten(t.best[0].Dist)
		}
	}
}

// sorted drains the heap into ascending (dist, start) order.
func (t *topK) sorted() []series.Match {
	out := make([]series.Match, len(t.best))
	for i := len(out) - 1; i >= 0; i-- {
		var m worstFirst
		t.best, m = heapPop(t.best)
		out[i] = series.Match(m)
	}
	return out
}

// worstFirst is a result-heap element: a match ordered so the worst
// under the strict (distance, then start) total order leaves the heap
// first.
type worstFirst series.Match

func (a worstFirst) before(b worstFirst) bool {
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	return a.Start > b.Start
}

// heapItem orders the elements of a typed binary heap: a.before(b)
// reports that a must leave the heap ahead of b.
type heapItem[T any] interface{ before(T) bool }

// heapPush and heapPop are container/heap's sift-up and sift-down over
// a plain slice, without boxing every element into an interface value.
// They hold the result heap; a top-k traversal's node queue, the hotter
// heap, is a frontier (frozen.go).
func heapPush[T heapItem[T]](h []T, x T) []T {
	h = append(h, x)
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2 // parent
		if !h[j].before(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	return h
}

// heapPop removes and returns the first element in before-order. h must
// be non-empty.
func heapPop[T heapItem[T]](h []T) ([]T, T) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].before(h[j]) {
			j = r
		}
		if !h[j].before(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return h[:n], h[n]
}

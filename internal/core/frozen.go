package core

// The frozen TS-Index: a read-only compilation of the insertion tree
// into a contiguous structure-of-arrays arena, the only form Build and
// BuildRange return. Descent through a pointer tree chases a heap
// allocation per node plus two more for the MBTS bound slices; at query
// time the per-node cost of that pointer chasing dominates (the actual
// Eq. 2 arithmetic streams two short arrays). The frozen form packs
// every node's bounds into two flat []float32 backing slices, children
// into (firstChild, count) index ranges, and all leaf positions into
// one flat []int32 — the database-style flat layout that Relational
// E-Matching applies to e-graph traversal, applied to MBTS descent. Traversal touches consecutive cache lines instead of
// scattered heap objects, and persistence becomes a handful of
// sequential array reads (the stepping stone to mmap-resident nodes).
//
// Once the index is columns, a column's width is a storage decision:
// the bounds are held at half width, each rounded outward as freeze
// narrows it (upper toward +Inf, lower toward −Inf). The narrowed box
// encloses the exact one, so Eq. 2 against it is still a lower bound on
// the distance to every window beneath the node — Lemma 1 holds as
// stated and pruning stays sound; leaves verify against the exact
// float64 series, so answers do not move by a bit. Only the traversal
// counters can, upward, when the slack admits a node the exact bound
// would have pruned. The kernels widen each bound in the register it is
// loaded into and compute in float64 (kernel.DistFlat32 and friends);
// only the builder, which exists inside a build, holds float64 bounds.
//
// The traversals use the layout that way: a node's children are one
// contiguous run of bound rows, so every search path scores them at
// expansion in a single forward kernel pass (sweepChildren →
// kernel.SweepAbandonFlat32), each row abandoned as soon as its first
// lanes rule it out, and queues only the survivors; a leaf's windows
// are verified the same way (candidates → kernel.SweepWindows).
//
// Layout: nodes are numbered in BFS order, node 0 the root. The tree is
// height-balanced with all leaves on the last level (§5.2), so in BFS
// order every internal node precedes every leaf: nodes [0, leafStart)
// are internal, [leafStart, n) are leaves. BFS numbering also makes both
// index ranges prefix-contiguous — node i+1's children start where node
// i's ended — which freeze exploits and CheckInvariants enforces.
//
// The arena is the only searchable form, and nothing mutates it: the
// builder inserts, freeze compiles it as a build's last step (an index
// that grows scans its new windows as a tail until a rebuild; see
// internal/shard), and every query — range (Algorithm 1) at any
// length up to L, and top-k — walks the arrays below, one traversal per
// path, always from the root: a sharded index runs one whole walk per
// shard, never a piece of one. What each walk visits, in what order, is pinned by
// TestTraversalGoldenStats; what it answers, by internal/oracle.

import (
	"fmt"
	"slices"
	"sync"
	"unsafe"

	"twinsearch/internal/arena"
	"twinsearch/internal/exec"
	"twinsearch/internal/mbts/kernel"
	"twinsearch/internal/series"
)

// Frozen is the flat, read-only, searchable form of a built TS-Index.
// Build, BuildRange and OpenFrozen construct it; nothing writes to
// it afterwards, so a view into a file mapping is never written through.
type Frozen struct {
	ext    *series.Extractor
	cfg    Config
	size   int
	height int

	// backing, when non-nil, is the byte region the arrays below are
	// views into (OpenFrozen); nil means they are ordinary heap
	// slices. A mapped backing's owner (the Engine, a cluster Node)
	// controls its lifetime — views die with it, so a Frozen must not
	// outlive its backing.
	backing *arena.Arena

	// leafStart splits the BFS node numbering: [0, leafStart) internal,
	// [leafStart, len(first)) leaves.
	leafStart int32
	// first[i] is the first child's node id (internal) or the offset of
	// the node's run in positions (leaf); count[i] is the run length.
	// Both ranges are prefix-contiguous in BFS order.
	first, count []int32
	// positions holds every leaf's start positions, leaf runs
	// back to back.
	positions []int32
	// upper and lower pack all MBTS bounds, narrowed outward: node i's
	// bounds live at [i*L, (i+1)*L) of each.
	upper, lower []float32
}

// freeze compiles the builder's tree into its flat arena form, the last
// step of a build; the result shares nothing with the builder.
func (ix *builder) freeze() *Frozen {
	f := &Frozen{ext: ix.ext, cfg: ix.cfg, size: ix.size, height: ix.height}
	if ix.root == nil {
		return f
	}
	// BFS walk: count nodes per kind first so the arenas allocate once.
	order := []*node{ix.root}
	internal, npos := 0, 0
	for at := 0; at < len(order); at++ {
		if n := order[at]; n.leaf {
			npos += len(n.positions)
		} else {
			internal++
			order = append(order, n.children...)
		}
	}
	nn, l := len(order), ix.cfg.L
	f.leafStart = int32(internal)
	f.first = make([]int32, nn)
	f.count = make([]int32, nn)
	f.positions = make([]int32, 0, npos)
	f.upper = make([]float32, nn*l)
	f.lower = make([]float32, nn*l)

	// Every node's children are one block of rows already in child
	// order, and BFS numbers them consecutively: the bounds are the
	// root's row, then each internal node's block, narrowed in turn.
	kernel.NarrowBounds(f.upper[:l], f.lower[:l], ix.root.bounds.Upper, ix.root.bounds.Lower)
	childAt := int32(1) // node 0 is the root; its children start at 1
	for i, n := range order {
		if n.leaf {
			f.first[i] = int32(len(f.positions))
			f.count[i] = int32(len(n.positions))
			f.positions = append(f.positions, n.positions...)
			continue
		}
		k := len(n.children)
		at := int(childAt) * l
		kernel.NarrowBounds(f.upper[at:at+k*l], f.lower[at:at+k*l], n.rows.Upper[:k*l], n.rows.Lower[:k*l])
		f.first[i] = childAt
		f.count[i] = int32(k)
		childAt += int32(k)
	}
	return f
}

func (f *Frozen) boundsUpper(i int32) []float32 {
	l := int32(f.cfg.L)
	return f.upper[i*l : (i+1)*l]
}

func (f *Frozen) boundsLower(i int32) []float32 {
	l := int32(f.cfg.L)
	return f.lower[i*l : (i+1)*l]
}

func (f *Frozen) isLeaf(i int32) bool { return i >= f.leafStart }

// Len returns the number of indexed windows.
func (f *Frozen) Len() int { return f.size }

// Height returns the number of levels (1 = the root is a leaf).
func (f *Frozen) Height() int { return f.height }

// L returns the indexed subsequence length.
func (f *Frozen) L() int { return f.cfg.L }

// Config returns the configuration the index was built with, defaults
// filled in: what a rebuild of its windows passes to BuildRange.
func (f *Frozen) Config() Config { return f.cfg }

// Extractor exposes the extractor the index was built over.
func (f *Frozen) Extractor() *series.Extractor { return f.ext }

// NodeCount returns the total number of arena nodes.
func (f *Frozen) NodeCount() int { return len(f.first) }

// Positions exposes the flat start-position array (every indexed
// window exactly once, in leaf-run order). Callers must not modify it;
// the shard layer reads it to validate partitions.
func (f *Frozen) Positions() []int32 { return f.positions }

// arrayBytes is the byte footprint of the flat arrays themselves,
// wherever they live — element widths taken from the field types, so a
// width change cannot leave the accounting behind.
func (f *Frozen) arrayBytes() int {
	return int(unsafe.Sizeof(f.upper[0]))*(len(f.upper)+len(f.lower)) + // bounds
		int(unsafe.Sizeof(f.first[0]))*(len(f.first)+len(f.count)+len(f.positions)) // structure
}

// MemoryBytes reports the heap-resident bytes of the arena. For a heap
// frozen index the flat bound arrays dominate (per-node structural
// overhead is 8 bytes — two int32 — against a pointer tree's per-node
// struct + slice headers); for a file-mapped one the arrays live in the
// page cache, not the heap, and only the struct and slice headers
// remain (see MappedBytes for the other half).
func (f *Frozen) MemoryBytes() int {
	const headers = int(unsafe.Sizeof(Frozen{})) // the struct, slice headers included
	if f.Mapped() {
		return headers
	}
	return f.arrayBytes() + headers
}

// MappedBytes reports the file-mapped footprint of the arena: the flat
// arrays' size when they are views into an mmap'd region, 0 for a heap
// frozen index. Mapped pages are shared with every other process
// mapping the same index and reclaimable by the kernel, so they are
// accounted separately from MemoryBytes.
func (f *Frozen) MappedBytes() int {
	if f.Mapped() {
		return f.arrayBytes()
	}
	return 0
}

// Mapped reports whether the arrays are views into an mmap'd file
// region rather than heap slices.
func (f *Frozen) Mapped() bool { return f.backing != nil && f.backing.Mapped() }

// Search returns all twin subsequences of q at threshold eps among the
// indexed window starts, in start order (§5.3, Algorithm 1): the tree
// is walked from the root and every subtree whose MBTS is farther than
// ε from the query is pruned — sound by Lemma 1: for any sequence S
// enclosed by MBTS B, d(Q, B) ≤ d∞(Q, S). q must be in the extractor's
// value space, with 1 ≤ len(q) ≤ L.
//
// A query shorter than the indexed length ℓ < L is answered by the same
// walk — the direction ULISSE takes data-series indexing, derived here
// from the paper's own closure property (§3.1): the first ℓ timestamps
// of a node's MBTS bound the first ℓ values of every window beneath it,
// so the Eq. 2 distance over that prefix still lower-bounds d∞(Q,
// T[p,ℓ]) for every indexed start p. The starts (n−L, n−ℓ] exist only
// at the shorter length and belong to no tree: the caller verifies them
// with ScanTail. Per-subsequence normalization is the caller's to
// refuse: z-normalizing T[p,ℓ] is not a prefix of z-normalizing T[p,L],
// so the stored bounds do not transfer.
func (f *Frozen) Search(q []float64, eps float64) []series.Match {
	ms, _ := f.SearchStats(q, eps)
	return ms
}

// SearchStats is Search with traversal counters. It panics on a query
// length outside 1…L: its callers validate.
func (f *Frozen) SearchStats(q []float64, eps float64) ([]series.Match, Stats) {
	if len(q) == 0 || len(q) > f.cfg.L {
		panic(fmt.Sprintf("core: query length %d, index built for %d", len(q), f.cfg.L))
	}
	out, st := f.traverseRange(q, eps)
	series.SortMatches(out)
	st.Results = len(out)
	return out, st
}

// frozenStackCap sizes the range traversal's explicit stack. A
// constant capacity lets escape analysis keep it on the goroutine
// stack: a depth-first walk holds at most fanout × depth pending nodes
// (150 on the served tree: MaxCap 30, height 5), and a deeper tree
// spills to the heap once. It does not bound a best-first frontier, which holds
// every queued node (see frontiers).
const frozenStackCap = 256

// sweepScratchCap sizes the per-traversal child-distance scratch the
// same way: it covers the default MaxCap twice over, and a wider node
// spills to the heap once.
const sweepScratchCap = 64

// sweepChildren scores internal node n's children against q (a shorter
// query scores the first len(q) lanes of each row) in one forward pass
// over their contiguous bound rows: in the result, entry j is child
// f.first[n]+j's Eq. 2 distance, or negative when it exceeds limit.
// Like append, it reuses dists when its capacity allows and returns a
// wider slice otherwise — pass the result back in at the next node.
func (f *Frozen) sweepChildren(n int32, q []float64, limit float64, dists []float64) []float64 {
	first, c := int(f.first[n]), int(f.count[n])
	if c > cap(dists) {
		dists = make([]float64, c)
	}
	dists = dists[:c]
	l := f.cfg.L
	kernel.SweepAbandonFlat32(f.upper[first*l:], f.lower[first*l:], l, q, limit, dists)
	return dists
}

// traverseRange is the range traversal behind SearchStats (len(q) ≤ L:
// a shorter query's Lemma 1 test reads the first len(q) lanes of each
// bound row, the sweep's stride staying L). The root is tested once;
// from then on the stack holds only nodes that passed Lemma 1, each
// child tested — with early abandoning, as soon as any timestamp pushes
// its Eq. 2 distance beyond ε — when its parent is expanded, and
// survivors pushed in child order and visited LIFO. Matches come back
// in traversal order, and Stats.Results is left zero.
//
// The traversal allocates nothing but its answer: the stack and both
// sweep scratches stay on the goroutine stack, spilling only past
// capacity.
func (f *Frozen) traverseRange(q []float64, eps float64) ([]series.Match, Stats) {
	var st Stats
	if len(f.first) == 0 {
		return nil, st
	}
	st.NodesVisited++
	if _, ok := kernel.DistAbandonFlat32(f.boundsUpper(0), f.boundsLower(0), q, eps); !ok {
		st.NodesPruned++
		return nil, st
	}
	var out []series.Match
	ver := series.MakeVerifier(f.ext, q, eps)
	dists := make([]float64, 0, sweepScratchCap)
	stack := make([]int32, 0, frozenStackCap)
	stack = append(stack, 0)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !f.isLeaf(n) {
			dists = f.sweepChildren(n, q, eps, dists)
			st.NodesVisited += len(dists)
			first := f.first[n]
			for j, d := range dists {
				if d < 0 {
					st.NodesPruned++
					continue
				}
				stack = append(stack, first+int32(j))
			}
			continue
		}
		st.LeavesReached++
		lo, c := f.first[n], f.count[n]
		out = verify(&ver, f.positions[lo:lo+c], out, &st)
	}
	return out, st
}

// SearchTopK returns the k subsequences nearest to q under Chebyshev
// distance, sorted by ascending distance with ties broken by start
// position — a strict total order, so the result set is deterministic
// even when more than k windows share the k-th distance.
//
// This is an extension beyond the paper (which studies threshold
// queries): a best-first traversal ordered by the Eq. 2 node distance,
// which lower-bounds the true distance of everything below a node
// (Lemma 1), so the traversal can stop as soon as the nearest unexplored
// node is farther than the current k-th best — the classic optimal
// incremental NN strategy transplanted onto MBTS.
func (f *Frozen) SearchTopK(q []float64, k int) []series.Match {
	ms, _ := f.SearchTopKShared(q, k, nil)
	return ms
}

// SearchTopKShared is SearchTopK with counters and an optional
// cross-traversal bound (see SharedBound): internal/shard passes one to
// every shard's traversal of a fanned-out query so each rejects against
// the candidates the others have already admitted. Pruning and
// abandoning are on strict inequality only, so the local result may
// omit matches that cannot survive the k-way merge of the shards'
// lists, and the merged top-k is unaffected. A nil bound is the plain
// single-index traversal.
//
// The returned Stats count this traversal's work (see topK); Results
// stays zero — the caller holding the final list sets it.
func (f *Frozen) SearchTopKShared(q []float64, k int, shared *SharedBound) ([]series.Match, Stats) {
	if len(q) != f.cfg.L {
		panic("core: query length mismatch")
	}
	if k <= 0 || len(f.first) == 0 {
		return nil, Stats{}
	}

	t := newTopK(k, shared)
	ver := series.MakeVerifier(f.ext, q, 0) // top-k sweeps against its own limit

	t.st.NodesVisited++
	rootLB, ok := kernel.DistAbandonFlat32(f.boundsUpper(0), f.boundsLower(0), q, t.limit())
	if !ok {
		t.st.NodesPruned++
		return nil, t.st // a shared bound has already excluded the whole tree
	}
	// The frontier is a recycled buffer; the sweep scratch stays on the
	// goroutine stack until a node outgrows it.
	buf := frontiers.Get().(*frontier)
	pq := (*buf)[:0].push(frozenItem{id: 0, lb: rootLB})
	dists := make([]float64, 0, sweepScratchCap)

	for len(pq) > 0 {
		var item frozenItem
		pq, item = pq.pop()
		if item.lb > t.limit() {
			// Every remaining node is at least this far.
			t.st.NodesPruned += len(pq) + 1
			break
		}
		if !f.isLeaf(item.id) {
			// The limit is read once per expansion: only another
			// shard's traversal tightening the shared bound can move it
			// meanwhile, and a child that slips past the stale value is
			// caught by the pop-time test above.
			dists = f.sweepChildren(item.id, q, t.limit(), dists)
			t.st.NodesVisited += len(dists)
			first := f.first[item.id]
			for j, lb := range dists {
				if lb < 0 {
					t.st.NodesPruned++
					continue
				}
				pq = pq.push(frozenItem{id: first + int32(j), lb: lb})
			}
			continue
		}
		t.st.LeavesReached++
		first, c := f.first[item.id], f.count[item.id]
		t.offer(&ver, f.positions[first:first+c])
	}
	*buf = pq[:0]
	frontiers.Put(buf)
	return t.sorted(), t.st
}

// frozenItem pairs an arena node id with its Eq. 2 lower bound for the
// query; nearest first, equal bounds in id order. No node is queued
// twice, so (lb, id) is a strict total order: the frontier pops one
// sequence whatever its shape.
type frozenItem struct {
	lb float64
	id int32
}

func (a frozenItem) before(b frozenItem) bool {
	return a.lb < b.lb || a.lb == b.lb && a.id < b.id
}

// frontier is a top-k traversal's node queue: a 4-ary min-heap under
// before. It is half as deep as a binary heap, a node's children share
// a cache line or two, and its sifts are written out for this one
// element type so that before inlines (a generic heap calls it through
// a dictionary). Moving a hole instead of swapping halves the stores.
type frontier []frozenItem

const frontierArity = 4

func (h frontier) push(x frozenItem) frontier {
	h = append(h, x)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / frontierArity // parent
		if !x.before(h[i]) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = x
	return h
}

// pop removes and returns the nearest node. h must be non-empty.
func (h frontier) pop() (frontier, frozenItem) {
	top, n := h[0], len(h)-1
	x := h[n]
	i := 0
	for {
		c := frontierArity*i + 1 // first child
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < min(c+frontierArity, n); j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
	return h[:n], top
}

// frontiers recycles the frontiers' buffers. A frontier holds every
// node queued and not yet popped — 4 405 at peak on the served shape
// (EEG 200 k, L = 100, k = 10) — so one grown per query cost ≈ 60 KB
// and five allocations; a recycled one costs neither once warm.
var frontiers = sync.Pool{New: func() any { return new(frontier) }}

// CheckInvariants validates the arena against the series and the
// structural invariants a build guarantees — the one tree checker:
// tests run it on what Build returns, and OpenFrozen runs its two
// halves on a heap arena (the containment half on the open's
// executor), so a corrupt or hostile stream is rejected before any
// traversal indexes into the arrays:
//
//   - first/count ranges are prefix-contiguous and in-bounds for both
//     the child numbering and the positions array;
//   - occupancy respects MinCap/MaxCap (a root leaf holds at least 1
//     entry, an internal root at least 2) and every leaf sits at
//     depth == height;
//   - every node's bounds enclose its children's bounds (internal) or
//     the exact windows of its positions (leaf);
//   - positions are valid window starts and total exactly size.
//
// The first two bullets and the position range check are CheckStructure
// — together they make every traversal memory-safe. The containment
// bullet (CheckContainment) additionally guarantees the bounds are
// truthful, i.e. searches return the right answers; it reads every lane
// of every indexed window, O(size·L), in one enclosure pass per node
// (≈ 9 ms of CPU at 200 001 windows of L = 100 on a 2-vCPU Xeon, AVX2:
// ≈ 4.5 ms of a ≈ 14.5 ms copy open on two units; CheckInvariants itself
// runs it inline). A mapped open runs
// CheckStructure only — pointing at a multi-gigabyte mapping must not
// re-read the whole series — and trusts containment to the writer, as
// every database trusts its own files' payloads once the framing
// checks out.
func (f *Frozen) CheckInvariants() error {
	if err := f.CheckStructure(); err != nil {
		return err
	}
	return f.CheckContainment(nil)
}

// CheckStructure validates every invariant needed for traversals to be
// memory-safe — array sizes, prefix-contiguity, occupancy, leaf depth,
// and position ranges — without extracting windows. Allocation-free, so
// the mmap open path can run it on arbitrarily large arenas at
// O(header) heap cost (it does stream the structure arrays once, which
// doubles as page-cache warmup for the index skeleton).
func (f *Frozen) CheckStructure() error {
	nn := len(f.first)
	if len(f.count) != nn {
		return fmt.Errorf("core: frozen: %d first entries, %d count entries", nn, len(f.count))
	}
	if len(f.upper) != nn*f.cfg.L || len(f.lower) != nn*f.cfg.L {
		return fmt.Errorf("core: frozen: bound arrays sized %d/%d, want %d", len(f.upper), len(f.lower), nn*f.cfg.L)
	}
	if nn == 0 {
		if f.size != 0 {
			return fmt.Errorf("core: frozen: empty arena with size %d", f.size)
		}
		return nil
	}
	if f.leafStart < 0 || int(f.leafStart) > nn {
		return fmt.Errorf("core: frozen: leafStart %d outside [0, %d]", f.leafStart, nn)
	}
	maxPos := series.NumSubsequences(f.ext.Len(), f.cfg.L)

	// Structural pass: prefix-contiguity of both index spaces.
	childAt := int32(1)
	posAt := int32(0)
	for i := 0; i < nn; i++ {
		c := f.count[i]
		if c < 0 {
			return fmt.Errorf("core: frozen: node %d has negative count", i)
		}
		occLo, occHi := int32(f.cfg.MinCap), int32(f.cfg.MaxCap)
		if i == 0 {
			occLo = 1
			if !f.isLeaf(0) {
				occLo = 2
			}
		}
		if c < occLo || c > occHi {
			return fmt.Errorf("core: frozen: node %d occupancy %d outside [%d, %d]", i, c, occLo, occHi)
		}
		if f.isLeaf(int32(i)) {
			if f.first[i] != posAt {
				return fmt.Errorf("core: frozen: leaf %d positions start at %d, want %d", i, f.first[i], posAt)
			}
			posAt += c
			continue
		}
		if f.first[i] != childAt {
			return fmt.Errorf("core: frozen: node %d children start at %d, want %d", i, f.first[i], childAt)
		}
		childAt += c
	}
	if int(childAt) != nn {
		return fmt.Errorf("core: frozen: children cover %d nodes, arena has %d", childAt, nn)
	}
	if int(posAt) != len(f.positions) {
		return fmt.Errorf("core: frozen: leaves cover %d positions, array has %d", posAt, len(f.positions))
	}
	if int(posAt) != f.size {
		return fmt.Errorf("core: frozen: %d entries reachable, %d recorded", posAt, f.size)
	}

	// Depth pass: BFS numbering makes every level a contiguous id range
	// ([0,1) is the root; a level's children form the next range), so
	// walking level ranges needs no per-node depth array. All leaves
	// must form exactly the last level, at depth == height.
	lo, hi := int32(0), int32(1)
	for d := 1; ; d++ {
		if lo >= f.leafStart {
			// Leaf level: must cover every leaf and sit at height.
			if int(lo) != int(f.leafStart) || int(hi) != nn || d != f.height {
				return fmt.Errorf("core: frozen: leaf level [%d, %d) at depth %d, want [%d, %d) at height %d", lo, hi, d, f.leafStart, nn, f.height)
			}
			break
		}
		if int(hi) > int(f.leafStart) {
			return fmt.Errorf("core: frozen: level [%d, %d) at depth %d mixes internal nodes and leaves", lo, hi, d)
		}
		if d >= f.height {
			return fmt.Errorf("core: frozen: internal level [%d, %d) at depth %d, height is %d", lo, hi, d, f.height)
		}
		// Prefix-contiguity (verified above) makes the children of a
		// level range exactly the next range.
		lo, hi = f.first[lo], f.first[hi-1]+f.count[hi-1]
	}

	// Position range pass: every leaf entry must be a valid window
	// start, or a traversal's verification would index past the series.
	for _, p := range f.positions {
		if p < 0 || int(p) >= maxPos {
			return fmt.Errorf("core: frozen: corrupt position %d (max %d)", p, maxPos)
		}
	}
	return nil
}

// CheckContainment validates the semantic half of the invariants: every
// node's bounds enclose its children's bounds (internal) or the exact
// windows of its positions (leaf). Requires a structurally valid arena.
// An internal node costs one kernel.BoundsInside32 pass over its child
// rows; a leaf one kernel.WindowsInside32 pass over its windows — read
// in place from the series, or, under per-subsequence normalisation,
// normalised into rows first, as series.Verifier.Sweep lays them out.
// Only a node that pass refuses is re-checked child by child or window
// by window, to name the first one outside. Either way it reads all
// size·L window lanes and every child row.
//
// The nodes are checked as contiguous BFS ranges, one unit each on ex,
// about ex.Workers() of them, cut where the lanes they read (a node's
// count·L, child rows or windows alike) are evenly shared. Each unit
// stops at the first failure in its range, and the lowest unit's
// failure is returned: the first failing node in BFS order, so the text
// does not depend on the worker count. A nil ex checks every node
// inline, as one unit.
func (f *Frozen) CheckContainment(ex *exec.Executor) error {
	nn := len(f.first)
	if nn == 0 {
		return nil
	}
	units := 1
	if ex != nil {
		units = min(ex.Workers(), nn)
	}
	if units <= 1 {
		return f.containedIn(0, nn)
	}
	// Every node but the root is one child row, and every window one
	// leaf entry, so the lanes a node reads are its count·L and the
	// total is (nodes − 1 + size)·L.
	cuts := make([]int, units+1)
	total, at, done := nn-1+f.size, 0, 0
	for u := 1; u < units; u++ {
		for at < nn && done*units < u*total {
			done += int(f.count[at])
			at++
		}
		cuts[u] = at
	}
	cuts[units] = nn
	errs := make([]error, units)
	ex.ForEach(units, func(u int) { errs[u] = f.containedIn(cuts[u], cuts[u+1]) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// containedIn is CheckContainment over the nodes [from, to): the first
// node in that range whose bounds miss a child or a window, named.
func (f *Frozen) containedIn(from, to int) error {
	l := f.cfg.L
	maxPos := series.NumSubsequences(f.ext.Len(), l)
	buf := make([]float64, l)
	var lay leafRows
	for i := from; i < to; i++ {
		up, lo := f.boundsUpper(int32(i)), f.boundsLower(int32(i))
		first, c := f.first[i], f.count[i]
		if f.isLeaf(int32(i)) {
			held := f.positions[first : first+c]
			if lay.inside(f, up, lo, held, maxPos) {
				continue
			}
			for _, p := range held {
				if p < 0 || int(p) >= maxPos {
					return fmt.Errorf("core: frozen: corrupt position %d (max %d)", p, maxPos)
				}
				w := f.ext.Extract(int(p), l, buf)
				if d := kernel.DistFlat32(up, lo, w); d > 0 {
					return fmt.Errorf("core: frozen: leaf %d bounds do not enclose window %d", i, p)
				}
			}
			continue
		}
		rows, end := int(first)*l, int(first+c)*l // the children's bound rows
		if kernel.BoundsInside32(up, lo, f.upper[rows:end], f.lower[rows:end], l, int(c)) {
			continue
		}
		for j := int32(0); j < c; j++ {
			cu, cl := f.boundsUpper(first+j), f.boundsLower(first+j)
			for t := 0; t < l; t++ {
				if cu[t] > up[t] || cl[t] < lo[t] {
					return fmt.Errorf("core: frozen: node %d bounds do not enclose child %d", i, first+j)
				}
			}
		}
	}
	return nil
}

// leafRows is CheckContainment's scratch for per-subsequence
// normalisation: a leaf's windows laid out back to back, and the start
// of each row.
type leafRows struct {
	rows   []float64
	starts []int32
}

// inside reports whether the leaf bounds (up, lo) enclose the windows at
// held, in one kernel.WindowsInside32 pass. false also stands for a
// position outside [0, maxPos), which the caller's exact loop names.
func (lay *leafRows) inside(f *Frozen, up, lo []float32, held []int32, maxPos int) bool {
	for _, p := range held {
		if p < 0 || int(p) >= maxPos {
			return false
		}
	}
	l := f.cfg.L
	if f.ext.Mode() != series.NormPerSubsequence {
		return kernel.WindowsInside32(up, lo, f.ext.Data(), held, l)
	}
	lay.rows = slices.Grow(lay.rows[:0], len(held)*l)[:len(held)*l]
	for len(lay.starts) < len(held) {
		lay.starts = append(lay.starts, int32(len(lay.starts)*l))
	}
	for j, p := range held {
		f.ext.Extract(int(p), l, lay.rows[j*l:(j+1)*l]) // normalised into the row
	}
	return kernel.WindowsInside32(up, lo, lay.rows, lay.starts[:len(held)], l)
}

// Package isax implements the iSAX tree index [Shieh & Keogh 2008;
// Camerra et al. 2014] over all ℓ-length subsequences of a series, and
// the twin-search adaptation of the paper's §4.2.
//
// Structure: the root fans out to one child per base-cardinality SAX
// word actually observed. An internal node holds an iSAX word (one
// symbol per PAA segment, each with its own cardinality) and exactly two
// children obtained by adding one bit of cardinality to one segment (the
// iSAX binary split). Leaves store the start positions of their
// subsequences together with each subsequence's max-cardinality symbols,
// so splits never touch the raw series.
//
// Twin search traverses top-down, pruning a node as soon as one
// segment's symbol interval fails to intersect [µq_i − ε, µq_i + ε]
// (see sax.Word.PruneTwin); surviving leaves hand their positions to the
// shared verifier.
package isax

import (
	"fmt"

	"twinsearch/internal/paa"
	"twinsearch/internal/sax"
	"twinsearch/internal/series"
)

// DefaultLeafCapacity matches the paper's setup: "the maximum node
// capacity is set to 10,000" (§6.1).
const DefaultLeafCapacity = 10000

// DefaultBaseBits is the root fan-out cardinality exponent (cardinality 2).
const DefaultBaseBits = 1

// Config parameterizes index construction.
type Config struct {
	// L is the indexed subsequence length.
	L int
	// Segments is the PAA/SAX word length m (paper Table 2; default 10).
	Segments int
	// LeafCapacity bounds leaf occupancy (DefaultLeafCapacity when 0).
	LeafCapacity int
}

// Index is a built iSAX index.
type Index struct {
	ext   *series.Extractor
	cfg   Config
	quant *sax.Quantizer
	root  map[string]*node
	size  int
	nodes int
}

type node struct {
	word sax.Word
	leaf bool

	// Leaf payload: positions[i] pairs with symsMax[i*m : (i+1)*m].
	positions []int32
	symsMax   []uint8

	// Internal payload: the two children of a binary split.
	left, right *node
	splitSeg    int
}

// Stats describes the work a search performed.
type Stats struct {
	NodesVisited  int
	NodesPruned   int
	LeavesReached int
	Candidates    int
	Results       int
}

// prepare validates cfg, fills the leaf capacity default, and picks
// the quantizer.
func prepare(ext *series.Extractor, cfg *Config) (*sax.Quantizer, int, error) {
	if cfg.L <= 0 {
		return nil, 0, fmt.Errorf("isax: invalid subsequence length %d", cfg.L)
	}
	if err := paa.Check(cfg.L, cfg.Segments); err != nil {
		return nil, 0, err
	}
	count := series.NumSubsequences(ext.Len(), cfg.L)
	if count == 0 {
		return nil, 0, fmt.Errorf("isax: series length %d shorter than subsequence length %d", ext.Len(), cfg.L)
	}
	if cfg.LeafCapacity <= 0 {
		cfg.LeafCapacity = DefaultLeafCapacity
	}
	// The standard N(0,1) breakpoints for normalized extractors;
	// breakpoints fitted to the data for raw ones (paper §4.2:
	// "non-normalized values can also be handled by adjusting the
	// breakpoints accordingly").
	if ext.Mode() == series.NormNone {
		return sax.FitQuantizer(ext.Data()), count, nil
	}
	return sax.Standard(), count, nil
}

// Build constructs an iSAX index over all ℓ-length windows of the
// extractor's series.
func Build(ext *series.Extractor, cfg Config) (*Index, error) {
	quant, count, err := prepare(ext, &cfg)
	if err != nil {
		return nil, err
	}

	ix := &Index{ext: ext, cfg: cfg, quant: quant, root: make(map[string]*node)}
	m := cfg.Segments
	winBuf := make([]float64, cfg.L)
	paaBuf := make([]float64, m)
	syms := make([]uint8, m)
	baseBits := make([]uint8, m)
	for i := range baseBits {
		baseBits[i] = DefaultBaseBits
	}

	for p := 0; p < count; p++ {
		w := ext.Extract(p, cfg.L, winBuf)
		paa.TransformTo(paaBuf, w)
		for i, v := range paaBuf {
			syms[i] = quant.SymbolMax(v)
		}
		ix.insert(int32(p), syms, baseBits)
	}
	return ix, nil
}

func (ix *Index) insert(p int32, symsMax []uint8, baseBits []uint8) {
	base := sax.WordFromMax(symsMax, baseBits)
	key := base.Key()
	n := ix.root[key]
	if n == nil {
		n = &node{word: base, leaf: true}
		ix.root[key] = n
		ix.nodes++
	}
	for !n.leaf {
		if n.left.word.MatchesMax(symsMax) {
			n = n.left
		} else {
			n = n.right
		}
	}
	n.positions = append(n.positions, p)
	n.symsMax = append(n.symsMax, symsMax...)
	ix.size++
	if len(n.positions) > ix.cfg.LeafCapacity {
		ix.splitLeaf(n)
	}
}

// splitLeafOnce performs a single binary split of a full leaf, adding
// one bit of cardinality to a segment that actually separates the
// entries. Segments are tried from the lowest current cardinality
// upward (the iSAX round-robin refinement order). It reports false when
// no segment separates the entries — all of them share identical
// max-cardinality words — in which case the leaf stays oversized, the
// standard iSAX fallback.
func (ix *Index) splitLeafOnce(n *node) bool {
	m := ix.cfg.Segments
	for _, seg := range splitOrder(n.word) {
		if int(n.word.Bits[seg]) >= sax.MaxBits {
			continue
		}
		left, right := n.word.SplitChildren(seg)
		nL, nR := 0, 0
		for i := range n.positions {
			if left.MatchesMax(n.symsMax[i*m : i*m+m]) {
				nL++
			} else {
				nR++
			}
		}
		if nL == 0 || nR == 0 {
			continue
		}
		lc := &node{word: left, leaf: true,
			positions: make([]int32, 0, nL), symsMax: make([]uint8, 0, nL*m)}
		rc := &node{word: right, leaf: true,
			positions: make([]int32, 0, nR), symsMax: make([]uint8, 0, nR*m)}
		for i, pos := range n.positions {
			entry := n.symsMax[i*m : i*m+m]
			if left.MatchesMax(entry) {
				lc.positions = append(lc.positions, pos)
				lc.symsMax = append(lc.symsMax, entry...)
			} else {
				rc.positions = append(rc.positions, pos)
				rc.symsMax = append(rc.symsMax, entry...)
			}
		}
		n.leaf = false
		n.positions, n.symsMax = nil, nil
		n.left, n.right, n.splitSeg = lc, rc, seg
		ix.nodes += 2
		return true
	}
	return false
}

// splitLeaf splits a full leaf and keeps splitting any oversized child
// until every descendant leaf fits (or cannot be separated).
func (ix *Index) splitLeaf(n *node) {
	if !ix.splitLeafOnce(n) {
		return
	}
	if len(n.left.positions) > ix.cfg.LeafCapacity {
		ix.splitLeaf(n.left)
	}
	if len(n.right.positions) > ix.cfg.LeafCapacity {
		ix.splitLeaf(n.right)
	}
}

// splitOrder returns segment indices ordered by (current bits, index):
// refine the coarsest segment first, matching iSAX's round-robin policy.
func splitOrder(w sax.Word) []int {
	m := w.Len()
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	// Insertion sort by (bits, index) — m is small.
	for i := 1; i < m; i++ {
		j := i
		for j > 0 && w.Bits[order[j]] < w.Bits[order[j-1]] {
			order[j], order[j-1] = order[j-1], order[j]
			j--
		}
	}
	return order
}

// Search returns all twin subsequences of q at threshold eps, in start
// order. q must be in the extractor's value space and len(q) must equal
// the indexed length.
func (ix *Index) Search(q []float64, eps float64) []series.Match {
	ms, _ := ix.SearchStats(q, eps)
	return ms
}

// SearchStats is Search with traversal counters.
func (ix *Index) SearchStats(q []float64, eps float64) ([]series.Match, Stats) {
	if len(q) != ix.cfg.L {
		panic(fmt.Sprintf("isax: query length %d, index built for %d", len(q), ix.cfg.L))
	}
	qPAA := paa.Transform(q, ix.cfg.Segments)
	ver := series.MakeVerifier(ix.ext, q, eps)

	var st Stats
	var out []series.Match
	stack := make([]*node, 0, 64)
	for _, n := range ix.root {
		stack = append(stack, n)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		st.NodesVisited++
		if n.word.PruneTwin(ix.quant, qPAA, eps) {
			st.NodesPruned++
			continue
		}
		if !n.leaf {
			stack = append(stack, n.left, n.right)
			continue
		}
		st.LeavesReached++
		st.Candidates += len(n.positions)
		out = ver.Within(n.positions, out)
	}
	// Root children are visited in map order and leaf position runs
	// interleave; restore the canonical ordering.
	series.SortMatches(out)
	st.Results = len(out)
	return out, st
}

// Len returns the number of indexed windows.
func (ix *Index) Len() int { return ix.size }

// NodeCount returns the number of tree nodes (root children included).
func (ix *Index) NodeCount() int { return ix.nodes }

// Quantizer exposes the quantizer in use (tests and tools).
func (ix *Index) Quantizer() *sax.Quantizer { return ix.quant }

// MemoryBytes estimates the heap footprint of the index structure: node
// overhead, per-node words, and leaf payloads (position + max-cardinality
// symbols per entry) — the paper's observation that an iSAX node stores
// "one SAX word per node" is what keeps this 2–3× below TS-Index.
func (ix *Index) MemoryBytes() int {
	total := 48 * len(ix.root) // map buckets (rough)
	var walk func(n *node)
	walk = func(n *node) {
		total += 96                   // node struct
		total += 2 * len(n.word.Syms) // word payload
		if n.leaf {
			total += 4*len(n.positions) + len(n.symsMax)
			return
		}
		walk(n.left)
		walk(n.right)
	}
	for _, n := range ix.root {
		walk(n)
	}
	return total
}

// CheckInvariants validates the structural invariants of the tree; tests
// call it after builds. It returns an error describing the first
// violation found.
func (ix *Index) CheckInvariants() error {
	m := ix.cfg.Segments
	total := 0
	var walk func(n *node) error
	walk = func(n *node) error {
		if n.leaf {
			if len(n.symsMax) != m*len(n.positions) {
				return fmt.Errorf("isax: leaf %q payload length mismatch", n.word.String())
			}
			for i := range n.positions {
				if !n.word.MatchesMax(n.symsMax[i*m : i*m+m]) {
					return fmt.Errorf("isax: leaf %q holds foreign entry", n.word.String())
				}
			}
			total += len(n.positions)
			return nil
		}
		if n.left == nil || n.right == nil {
			return fmt.Errorf("isax: internal %q missing child", n.word.String())
		}
		for _, c := range []*node{n.left, n.right} {
			if c.word.Bits[n.splitSeg] != n.word.Bits[n.splitSeg]+1 {
				return fmt.Errorf("isax: child of %q did not gain a bit on segment %d", n.word.String(), n.splitSeg)
			}
		}
		if err := walk(n.left); err != nil {
			return err
		}
		return walk(n.right)
	}
	for _, n := range ix.root {
		if err := walk(n); err != nil {
			return err
		}
	}
	if total != ix.size {
		return fmt.Errorf("isax: %d entries reachable, %d inserted", total, ix.size)
	}
	return nil
}

package core

import (
	"fmt"
	"slices"

	"twinsearch/internal/mbts"
)

// CheckInvariants validates the structural invariants the paper's
// construction guarantees; tests call it after builds and mutation
// sequences. It verifies:
//
//   - all leaves sit at the same level (§5.2: "this procedure ensures
//     that all leaves are placed on the same level");
//   - every non-root node holds between MinCap and MaxCap entries and
//     the root holds at most MaxCap;
//   - every node's MBTS encloses its children's MBTS (internal) or the
//     exact windows of its positions (leaf);
//   - every node's bounds are its row of its parent's block (the
//     root's, of Index.top);
//   - every inserted window is reachable exactly once.
func (ix *Index) CheckInvariants() error {
	if ix.root == nil {
		if ix.size != 0 {
			return fmt.Errorf("core: empty tree with size %d", ix.size)
		}
		return nil
	}
	if !sameRow(ix.root.bounds, ix.top.Row(0, ix.cfg.L)) {
		return fmt.Errorf("core: root bounds are not row 0 of the index's block")
	}
	total := 0
	buf := make([]float64, ix.cfg.L)
	var err error
	ix.each(func(n *node, depth int) {
		if err == nil {
			err = ix.checkNode(n, depth, buf)
			total += len(n.positions)
		}
	})
	if err != nil {
		return err
	}
	if total != ix.size {
		return fmt.Errorf("core: %d entries reachable, %d inserted", total, ix.size)
	}
	return nil
}

// checkNode is CheckInvariants on one node at depth (the root's is 1).
func (ix *Index) checkNode(n *node, depth int, buf []float64) error {
	if n.leaf && depth != ix.height {
		return fmt.Errorf("core: leaf at depth %d, height %d", depth, ix.height)
	}
	entries, minEntries := len(n.children)+len(n.positions), ix.cfg.MinCap
	if depth == 1 {
		minEntries = 2 // an internal root; a root leaf holds any number
		if n.leaf {
			minEntries = 0
		}
	}
	if entries < minEntries || entries > ix.cfg.MaxCap {
		return fmt.Errorf("core: occupancy %d at depth %d outside [%d, %d]", entries, depth, minEntries, ix.cfg.MaxCap)
	}
	for _, p := range n.positions {
		if !n.bounds.ContainsSequence(ix.ext.Extract(int(p), ix.cfg.L, buf)) {
			return fmt.Errorf("core: leaf MBTS does not enclose window %d", p)
		}
	}
	for i, c := range n.children {
		if !sameRow(c.bounds, n.rows.Row(i, ix.cfg.L)) {
			return fmt.Errorf("core: child %d at depth %d is not bounded at its row of the parent's block", i, depth+1)
		}
		if !n.bounds.ContainsMBTS(c.bounds) {
			return fmt.Errorf("core: parent MBTS does not enclose child at depth %d", depth)
		}
	}
	return nil
}

// sameRow reports whether a and b view the same memory.
func sameRow(a, b mbts.MBTS) bool {
	return len(a.Upper) == len(b.Upper) && len(a.Lower) == len(b.Lower) &&
		&a.Upper[0] == &b.Upper[0] && &a.Lower[0] == &b.Lower[0]
}

// verifyReachable is a test helper: it confirms position p is indexed.
func (ix *Index) verifyReachable(p int) bool {
	found := false
	ix.each(func(n *node, _ int) {
		found = found || slices.Contains(n.positions, int32(p))
	})
	return found
}

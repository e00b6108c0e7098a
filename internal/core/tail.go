package core

import "twinsearch/internal/series"

// The tail scans answer a query over a run of consecutive window starts
// without a tree, by the same verification a traversal's leaves run —
// the filter–verification split (paper §3.2) makes verification exact
// on any window set. They take the answer so far and a start range, so
// any caller holding an answer for [0, from) and windows no tree of its
// own covers can use them: a shorter query's windows that exist only at
// its length, the windows appended since an index's arenas were
// built (internal/shard's tail), and a cached answer a few appends
// behind the index.

// ScanTail verifies the windows starting in [from, to) against q at
// eps, appending matches to out in ascending start order — a range
// answer for [0, from) in, the range answer for [0, to) out — and
// counts the windows as candidates, and the rejected ones as abandons,
// into st when it is not nil.
func ScanTail(ext *series.Extractor, q []float64, eps float64, from, to int, out []series.Match, st *Stats) []series.Match {
	if from >= to {
		return out // the common case of an index with no tail
	}
	v := series.MakeVerifier(ext, q, eps)
	var own Stats
	if st == nil {
		st = &own
	}
	var buf [sweepScratchCap]int32
	for ; from < to; from += len(buf) {
		out = verify(&v, tailStarts(buf[:], from, to), out, st)
	}
	return out
}

// verify is the verification step of every range path — leaves and
// the tail scans: it appends to out the twins among the windows at
// starts, in the order given, and counts the windows as candidates, and
// the rejected ones as abandons, into st.
func verify(v *series.Verifier, starts []int32, out []series.Match, st *Stats) []series.Match {
	had := len(out)
	out = v.Within(starts, out)
	st.Candidates += len(starts)
	st.Abandons += len(starts) - (len(out) - had)
	return out
}

// tailStarts fills buf with the first window starts of [from, to).
func tailStarts(buf []int32, from, to int) []int32 {
	buf = buf[:min(to-from, len(buf))]
	for i := range buf {
		buf[i] = int32(from + i)
	}
	return buf
}

// ScanTailTopK turns best, the top-k answer over the windows starting
// in [0, from), into the one over [0, to): the list seeds the
// accumulator every traversal fills and each gained window is offered
// to it through the dispatched kernel, so distances, the (dist, start)
// order, ties at the k-th place and a list shorter than k come out as
// a traversal of all the windows reports them. best is not modified.
// The windows count as candidates, and those rejected against the
// running k-th distance as abandons, into st when it is not nil.
func ScanTailTopK(ext *series.Extractor, q []float64, k, from, to int, best []series.Match, st *Stats) []series.Match {
	if k <= 0 {
		return nil
	}
	if from >= to {
		return best
	}
	t := newTopK(k, nil)
	// A (dist, start)-ascending list read backwards is already a heap
	// with the worst on top: every parent follows its children.
	for i := len(best) - 1; i >= 0; i-- {
		t.best = append(t.best, worstFirst(best[i]))
	}
	v := series.MakeVerifier(ext, q, 0) // top-k sweeps against its own limit
	var buf [sweepScratchCap]int32
	for ; from < to; from += len(buf) {
		t.offer(&v, tailStarts(buf[:], from, to))
	}
	if st != nil {
		st.Candidates += t.st.Candidates
		st.Abandons += t.st.Abandons
	}
	return t.sorted()
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"

	"twinsearch/internal/series"
	"twinsearch/internal/sweepline"
)

// The oracle is the paper's definition, index-free: all windows within
// Chebyshev distance eps (the sweepline scan behind MethodSweepline), and
// the k nearest by (dist, start) via series.Chebyshev over every window.
// It runs over the driver's own copy of the series, grown by the same
// appends in the same order the server acknowledged them, through the
// same Extractor arithmetic (appended values normalise with the original
// mean and sigma), so answers must agree start for start.

const (
	oracleSearches = 64
	oracleTopKs    = 16
)

type oracle struct {
	ext *series.Extractor
}

func newOracle(data []float64) *oracle {
	return &oracle{ext: series.NewExtractor(data, series.NormGlobal)}
}

// search returns the start of every twin of the raw-space query q.
func (o *oracle) search(q []float64, eps float64) []int {
	return series.MatchStarts(sweepline.New(o.ext).Search(o.ext.TransformQuery(q), eps))
}

// topk returns the k nearest windows to q in (dist, start) order.
func (o *oracle) topk(q []float64, k int) []series.Match {
	tq := o.ext.TransformQuery(q)
	buf := make([]float64, len(q))
	best := make([]series.Match, 0, k+1)
	for p, n := 0, series.NumSubsequences(o.ext.Len(), len(q)); p < n; p++ {
		d := series.Chebyshev(o.ext.Extract(p, len(q), buf), tq)
		// Starts ascend, so on equal distance the earlier one stays ahead.
		if len(best) == k && d >= best[k-1].Dist {
			continue
		}
		at := sort.Search(len(best), func(i int) bool { return best[i].Dist > d })
		best = append(best, series.Match{})
		copy(best[at+1:], best[at:])
		best[at] = series.Match{Start: p, Dist: d}
		best = best[:min(len(best), k)]
	}
	return best
}

// baseCounts is the twin count of every pool query before any append —
// the floor the stale-answer check adds acknowledged appends to.
func (r *run) baseCounts() {
	o := newOracle(r.data)
	r.base = make([]int, len(r.queries))
	for i, q := range r.queries {
		r.base[i] = len(o.search(q, r.w.eps))
	}
}

// oraclePass re-asks the server, untimed, oracleSearches /search and
// oracleTopKs /topk queries sampled from the run's own and compares the
// full answers with the oracle's. On a pool workload this is after the
// last append, against the series as grown. Each sample counts as
// attempted; each mismatch as failed.
func (r *run) oraclePass(l *loop, res *result) {
	o := newOracle(r.data)
	for _, q := range l.order {
		o.ext.Append(r.queries[q]...)
	}
	picks := rand.New(rand.NewSource(r.cfg.seed + 1)).Perm(len(r.queries))
	picks = picks[:min(len(picks), oracleSearches+oracleTopKs)]
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	var buf bytes.Buffer
	for i, q := range picks {
		kind := opSearch
		if i >= len(picks)*oracleSearches/(oracleSearches+oracleTopKs) {
			kind = opTopK
		}
		body, err := r.body(kind, q)
		var msg string
		if err == nil {
			var status int
			status, err = post(hc, l.url+opPath[kind], body, &buf)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d", status)
			}
		}
		if err != nil {
			msg = err.Error()
		} else if kind == opSearch {
			msg = diffSearch(buf.Bytes(), o.search(r.queries[q], r.w.eps))
		} else {
			msg = diffTopK(buf.Bytes(), o.topk(r.queries[q], topK))
		}
		res.Attempted++
		res.OracleChecked++
		if msg != "" {
			res.Failed++
			res.OracleMismatches++
			if res.FirstError == "" {
				res.FirstError = fmt.Sprintf("oracle: %s query %d: %s", opPath[kind], q, msg)
			}
		}
	}
}

func diffSearch(body []byte, want []int) string {
	var got searchResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err.Error()
	}
	if got.Count != len(want) || len(got.Matches) != len(want) {
		return fmt.Sprintf("%d matches (count %d), oracle has %d", len(got.Matches), got.Count, len(want))
	}
	for i, m := range got.Matches {
		if m.Start != want[i] {
			return fmt.Sprintf("match %d starts at %d, oracle's at %d", i, m.Start, want[i])
		}
	}
	return ""
}

func diffTopK(body []byte, want []series.Match) string {
	var got searchResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err.Error()
	}
	if len(got.Matches) != len(want) {
		return fmt.Sprintf("%d matches, oracle has %d", len(got.Matches), len(want))
	}
	for i, m := range got.Matches {
		if m.Start != want[i].Start || m.Dist == nil || math.Abs(*m.Dist-want[i].Dist) > 1e-12 {
			return fmt.Sprintf("rank %d is %+v, oracle's is %+v", i, m, want[i])
		}
	}
	return ""
}

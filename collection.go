package twinsearch

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// CollectionMatch is a twin found in a multi-series collection: which
// series it came from and the 0-based start within that series.
type CollectionMatch struct {
	Series int
	Start  int
	Dist   float64 // -1 unless the search computes exact distances
}

// Collection answers twin queries across a set of independent time
// series (a sensor fleet, one series per patient, …) with one engine
// per member — the paper studies a single input series; this wrapper
// lifts every search mode to collections and merges results
// deterministically (by series, then start).
type Collection struct {
	engines []*Engine
	opt     Options

	// closed mirrors Engine.closed at the collection level: searches
	// beginning after Close fail with ErrClosed up front instead of
	// relying on whichever member engine they reach first.
	closed atomic.Bool
}

// OpenCollection builds an engine per series with shared options. Every
// series must be at least L long; normalization is applied per series
// (each member has its own scale, which is what fleet data looks like).
func OpenCollection(seriesSet [][]float64, opt Options) (*Collection, error) {
	if len(seriesSet) == 0 {
		return nil, fmt.Errorf("twinsearch: empty collection")
	}
	c := &Collection{opt: opt}
	for i, data := range seriesSet {
		eng, err := Open(data, opt)
		if err != nil {
			return nil, fmt.Errorf("twinsearch: collection member %d: %w", i, err)
		}
		c.engines = append(c.engines, eng)
	}
	return c, nil
}

// Len returns the number of member series.
func (c *Collection) Len() int { return len(c.engines) }

// Close releases every member engine's resources (mapped arenas,
// attached stores — see Engine.Close), returning the first error.
func (c *Collection) Close() error {
	c.closed.Store(true)
	var firstErr error
	for _, eng := range c.engines {
		if err := eng.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Engine returns the engine for member i.
func (c *Collection) Engine(i int) *Engine { return c.engines[i] }

// Search returns all twins of q at threshold eps across every member,
// ordered by (series, start). The query is interpreted in each member's
// raw value space and normalized per member.
func (c *Collection) Search(q []float64, eps float64) ([]CollectionMatch, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	var out []CollectionMatch
	for i, eng := range c.engines {
		ms, err := eng.Search(q, eps)
		if err != nil {
			return nil, fmt.Errorf("twinsearch: collection member %d: %w", i, err)
		}
		for _, m := range ms {
			out = append(out, CollectionMatch{Series: i, Start: m.Start, Dist: m.Dist})
		}
	}
	return out, nil
}

// SearchTopK returns the k nearest windows across the whole collection
// (TS-Index members only), in ascending (distance, series, start) order.
func (c *Collection) SearchTopK(q []float64, k int) ([]CollectionMatch, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	if k <= 0 {
		return nil, nil
	}
	var all []CollectionMatch
	for i, eng := range c.engines {
		ms, err := eng.SearchTopK(q, k)
		if err != nil {
			return nil, fmt.Errorf("twinsearch: collection member %d: %w", i, err)
		}
		for _, m := range ms {
			all = append(all, CollectionMatch{Series: i, Start: m.Start, Dist: m.Dist})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Dist != all[b].Dist {
			return all[a].Dist < all[b].Dist
		}
		if all[a].Series != all[b].Series {
			return all[a].Series < all[b].Series
		}
		return all[a].Start < all[b].Start
	})
	if len(all) > k {
		all = all[:k]
	}
	return all, nil
}

// SearchBatch answers a query workload over every member, one
// Engine.SearchBatch per member: members are independent, so batching
// per member suffices and no pool over (member, query) pairs is needed.
func (c *Collection) SearchBatch(queries [][]float64, eps float64) ([][]CollectionMatch, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	out := make([][]CollectionMatch, len(queries))
	for i, eng := range c.engines {
		results := eng.SearchBatch(queries, eps)
		for qi, r := range results {
			if r.Err != nil {
				return nil, fmt.Errorf("twinsearch: collection member %d query %d: %w", i, qi, r.Err)
			}
			for _, m := range r.Matches {
				out[qi] = append(out[qi], CollectionMatch{Series: i, Start: m.Start, Dist: m.Dist})
			}
		}
	}
	return out, nil
}

// Package twinsearch is a fixture for closedguard, mirroring the root
// package's Engine shape.
package twinsearch

import (
	"errors"
	"sync/atomic"
)

var errClosed = errors.New("closed")

// Engine mimics the real engine: closed guards the index fields.
type Engine struct {
	closed atomic.Bool
	ar     *int
	sh     *int
	cl     *int
}

// Search is guarded before the touch: no diagnostic.
func (e *Engine) Search(q []float64) ([]int, error) {
	if e.closed.Load() {
		return nil, errClosed
	}
	_ = e.ar
	return nil, nil
}

// SearchTopK never checks closed.
func (e *Engine) SearchTopK(q []float64, k int) ([]int, error) { // want `exported method SearchTopK touches index state \(sh\) without checking e\.closed`
	_ = e.sh
	return nil, nil
}

// Append reads the index before its guard.
func (e *Engine) Append(v float64) error {
	_ = e.cl // want `exported method Append touches index state \(cl\) before its e\.closed check`
	if e.closed.Load() {
		return errClosed
	}
	return nil
}

// Shards cannot return an error — metadata accessors are exempt.
func (e *Engine) Shards() int {
	if e.sh != nil {
		return *e.sh
	}
	return 1
}

// Close is the lifecycle method itself: exempt.
func (e *Engine) Close() error {
	e.closed.Store(true)
	_ = e.ar
	return nil
}

// searchCached mimics the serving-tier cache wrapper: index access is
// hidden inside the run closure, so the wrapper itself is guarded.
func (e *Engine) searchCached(run func() (int, error)) (int, error) { return run() }

// searchPreparedCtx mimics the post-validation dispatch helper.
func (e *Engine) searchPreparedCtx(q []float64) ([]int, error) { return nil, nil }

// SearchCached routes through the cache wrapper without a guard.
func (e *Engine) SearchCached(q []float64) (int, error) { // want `exported method SearchCached touches index state \(searchCached\(\)\) without checking e\.closed`
	return e.searchCached(func() (int, error) { return 0, nil })
}

// SearchCachedGuarded is the guarded shape: no diagnostic.
func (e *Engine) SearchCachedGuarded(q []float64) (int, error) {
	if e.closed.Load() {
		return 0, errClosed
	}
	return e.searchCached(func() (int, error) { return 0, nil })
}

// SearchPreparedCtx dispatches without a guard.
func (e *Engine) SearchPreparedCtx(q []float64) ([]int, error) { // want `exported method SearchPreparedCtx touches index state \(searchPreparedCtx\(\)\) without checking e\.closed`
	return e.searchPreparedCtx(q)
}

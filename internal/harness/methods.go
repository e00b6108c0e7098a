package harness

import (
	"fmt"
	"slices"
	"time"

	"twinsearch/internal/core"
	"twinsearch/internal/isax"
	"twinsearch/internal/kvindex"
	"twinsearch/internal/series"
	"twinsearch/internal/sweepline"
)

// MethodID identifies a search method in result rows.
type MethodID int

// The four compared methods, in the paper's presentation order, then
// TSIndexLongest: one TS-Index built at the length grid's longest ℓ,
// answering every shorter ℓ (Figure 5l).
const (
	Sweepline MethodID = iota
	KVIndex
	ISAX
	TSIndex
	TSIndexLongest
)

// AllMethods lists every method, in presentation order.
var AllMethods = []MethodID{Sweepline, KVIndex, ISAX, TSIndex}

// String implements fmt.Stringer.
func (m MethodID) String() string {
	switch m {
	case Sweepline:
		return "Sweepline"
	case KVIndex:
		return "KV-Index"
	case ISAX:
		return "iSAX"
	case TSIndex:
		return "TS-Index"
	case TSIndexLongest:
		return fmt.Sprintf("TS-Index@%d", slices.Max(LengthGrid))
	default:
		return fmt.Sprintf("MethodID(%d)", int(m))
	}
}

// searcher is the minimal query interface the runner drives.
type searcher interface {
	// search returns (results, candidates verified).
	search(q []float64, eps float64) (int, int)
}

// built couples a constructed method with its build cost.
type built struct {
	method    MethodID
	s         searcher
	buildTime time.Duration
	memBytes  int
}

type sweepAdapter struct{ s *sweepline.Sweepline }

func (a sweepAdapter) search(q []float64, eps float64) (int, int) {
	ms, st := a.s.SearchStats(q, eps)
	return len(ms), st.Candidates
}

type kvAdapter struct{ ix *kvindex.Index }

func (a kvAdapter) search(q []float64, eps float64) (int, int) {
	ms, st := a.ix.SearchStats(q, eps)
	return len(ms), st.Candidates
}

type isaxAdapter struct{ ix *isax.Index }

func (a isaxAdapter) search(q []float64, eps float64) (int, int) {
	ms, st := a.ix.SearchStats(q, eps)
	return len(ms), st.Candidates
}

// tsAdapter drives the frozen arena — the form every engine serves.
type tsAdapter struct{ f *core.Frozen }

func (a tsAdapter) search(q []float64, eps float64) (int, int) {
	ms, st := a.f.SearchStats(q, eps)
	if n := series.NumSubsequences(a.f.Extractor().Len(), len(q)); n > a.f.Len() {
		// A query shorter than the index: the windows that exist only
		// at its length are verified as a tail.
		ms = core.ScanTail(a.f.Extractor(), q, eps, a.f.Len(), n, ms, &st)
	}
	return len(ms), st.Candidates
}

// SkewedBoundaries builds a deliberately imbalanced partition over
// count windows: the last shard owns frac of them, and the remaining
// shards split what's left evenly (shards < 2 degenerates to a single
// shard owning everything). The skewed-shard benchmarks use it to
// show executor latency is bounded by total work, not by the hottest
// shard.
func SkewedBoundaries(count, shards int, frac float64) []int {
	if shards < 2 {
		return []int{0, count}
	}
	// Clamp so every shard keeps at least one window: the head shards
	// need shards-1 windows between them, the tail shard needs one.
	head := count - int(float64(count)*frac)
	if head < shards-1 {
		head = shards - 1
	}
	if head > count-1 {
		head = count - 1
	}
	starts := make([]int, shards+1)
	for i := 0; i < shards; i++ {
		starts[i] = i * head / (shards - 1)
	}
	starts[shards] = count
	return starts
}

// buildMethod constructs one method over ext with the paper's default
// structural parameters (§6.1) and the given ℓ and m.
func buildMethod(m MethodID, ext *series.Extractor, l, segments int) (built, error) {
	start := time.Now()
	switch m {
	case Sweepline:
		s := sweepline.New(ext)
		return built{method: m, s: sweepAdapter{s}, buildTime: time.Since(start)}, nil
	case KVIndex:
		ix, err := kvindex.Build(ext, kvindex.Config{L: l})
		if err != nil {
			return built{}, err
		}
		return built{method: m, s: kvAdapter{ix}, buildTime: time.Since(start),
			memBytes: ix.MemoryBytes()}, nil
	case ISAX:
		ix, err := isax.Build(ext, isax.Config{L: l, Segments: segments})
		if err != nil {
			return built{}, err
		}
		return built{method: m, s: isaxAdapter{ix}, buildTime: time.Since(start),
			memBytes: ix.MemoryBytes()}, nil
	case TSIndex:
		// Build time and memory are those of what is served: insertion
		// plus the compile into the arena, and the arena's bytes.
		f, err := core.Build(ext, core.Config{L: l})
		if err != nil {
			return built{}, err
		}
		return built{method: m, s: tsAdapter{f}, buildTime: time.Since(start),
			memBytes: f.MemoryBytes()}, nil
	default:
		return built{}, fmt.Errorf("harness: unknown method %v", m)
	}
}

// Package qcache holds the serving tier's one cache: a result cache of
// whole answers. Production traffic against a twin-subsequence index
// is highly repetitive — the same query bytes, eps, and k arrive over
// and over — so the engine keeps the full result set of a query (a hit
// skips validation's transform and the traversal entirely) for as long
// as the answer can be brought up to date.
//
// The cache is a striped LRU map: a key is routed to one of a fixed
// number of stripes by a multiplicative hash over its 8-byte words, so
// the hot path takes one stripe mutex, never a global one, and
// concurrent lookups of different queries proceed in parallel. Keys are
// the exact query bytes (plus parameters), compared by Go's string
// equality — a hash collision can cost a miss, never a wrong answer.
//
// Invalidation is structural, not scan-based, and there is one rule
// for it. The index is append-only: windows already indexed never
// change, so an answer — a pure function of (query, parameters, window
// set) — stays true of the windows it covered. Every entry records that
// window count (Result.Windows; on an append-only index it is the
// version) and keeps one key across appends: a lookup that finds an
// entry a few windows behind gets it back (GetCovering), the engine
// verifies only the windows gained, then Puts the longer answer over
// the old one. An entry too far behind is a miss, replaced by the fresh
// answer. Nothing is ever walked or purged inline on the hot path.
package qcache

import (
	"container/list"
	"encoding/binary"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"twinsearch/internal/series"
)

// stripeCount is the cache's lock-striping factor. 16 stripes
// keep mutex contention negligible at serving concurrency (requests
// for distinct queries hash to distinct stripes with high probability)
// while the per-stripe LRU lists stay long enough to approximate a
// global LRU.
const (
	stripeBits  = 4
	stripeCount = 1 << stripeBits
)

// stripeOf routes a key to its stripe: each little-endian 8-byte word
// (then each byte of a ragged tail) is xored in and multiplied by an
// odd constant, and the top bits of a final fold pick the stripe — a
// product's low bits see only its operands' low bits, and the low
// mantissa bits of integral values are all zero.
func stripeOf(key string) int {
	const m = 0x9E3779B97F4A7C15 // 2^64 / the golden ratio, odd
	h := uint64(len(key))
	i := 0
	for ; i+8 <= len(key); i += 8 {
		w := key[i : i+8]
		h = (h ^ (uint64(w[0]) | uint64(w[1])<<8 | uint64(w[2])<<16 | uint64(w[3])<<24 |
			uint64(w[4])<<32 | uint64(w[5])<<40 | uint64(w[6])<<48 | uint64(w[7])<<56)) * m
	}
	for ; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * m
	}
	h = (h ^ h>>32) * m
	return int(h >> (64 - stripeBits))
}

// Stats is a point-in-time snapshot of the cache's counters. Hits,
// misses, and evictions are cumulative since construction; Entries and
// Bytes are current occupancy. Extended counts the hits that returned
// an entry behind the index (see GetCovering) — a share of Hits, not a
// third outcome.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Extended  uint64
	Evictions uint64
	Entries   int
	Bytes     int
}

// Path tags the search path a cached result answers — part of the
// result key, so a range search and a top-k over the same query bytes
// can never alias.
type Path byte

// Result-cache path tags, one per cached Engine search path.
const (
	PathSearch Path = 's' // Search / SearchCtx
	PathTopK   Path = 'k' // SearchTopK / SearchTopKCtx
)

// ResultKey builds the result-cache key for one request: path tag, the
// path's parameter a (eps or float64(k)), then the little-endian bits
// of the raw query values. Two requests share a key only if every
// float64 is bit-identical (−0 and +0 do not alias) — exactly when
// their answers are identical too. The key holds no index version: the
// entry does (Result.Windows).
//
// The engine passes 0 for epoch and b, always. The two slots stay only
// because bench/micro.go (its qcache.key_ns row) calls this signature;
// they go with the next change to bench/, taking the fixed header from
// 25 bytes to 9.
func ResultKey(path Path, epoch uint64, a, b float64, q []float64) string {
	var head [1 + 8 + 8 + 8]byte
	head[0] = byte(path)
	binary.LittleEndian.PutUint64(head[1:], epoch)
	binary.LittleEndian.PutUint64(head[9:], math.Float64bits(a))
	binary.LittleEndian.PutUint64(head[17:], math.Float64bits(b))
	var k strings.Builder // one allocation, no copy into the string
	k.Grow(len(head) + 8*len(q))
	k.Write(head[:])
	var w [8]byte
	for _, v := range q {
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
		k.Write(w[:])
	}
	return k.String()
}

// Result is one cached answer: the match set and its version.
//
// Windows is the number of windows at the query's length, from start
// 0, the index held when the answer was computed — on an append-only
// index the answer is exact for precisely those, and a later lookup
// extends it over the windows gained since.
type Result struct {
	Matches []series.Match
	Windows int
}

// matchBytes is the accounting cost of one Match (two words) and
// resultOverhead the fixed per-entry cost charged for the list node,
// map slot, and headers — approximate, but it keeps the byte budget
// honest for small results, whose footprint is dominated by the key.
const (
	matchBytes     = 16
	resultOverhead = 128
)

func entryBytes(key string, r Result) int {
	return len(key) + len(r.Matches)*matchBytes + resultOverhead
}

// snapshot copies r so neither side of the cache boundary can mutate
// the other's matches; nil-ness is preserved (an empty answer
// round-trips as nil, exactly as a fresh traversal reports it).
func (r Result) snapshot() Result {
	if r.Matches != nil {
		ms := make([]series.Match, len(r.Matches))
		copy(ms, r.Matches)
		r.Matches = ms
	}
	return r
}

// ResultCache is the striped, byte-bounded LRU of full answers, keyed
// by ResultKey (path, parameter, query bytes).
type ResultCache struct {
	perBytes int // byte budget per stripe
	stripes  [stripeCount]resultStripe

	hits, misses, extended, evictions atomic.Uint64
}

type resultStripe struct {
	mu    sync.Mutex
	ll    *list.List
	m     map[string]*list.Element
	bytes int
}

type resultEntry struct {
	key string
	val Result
}

// NewResult builds a result cache bounded to about maxBytes of stored
// results (split evenly across stripes).
func NewResult(maxBytes int) *ResultCache {
	if maxBytes < stripeCount {
		maxBytes = stripeCount
	}
	c := &ResultCache{perBytes: (maxBytes + stripeCount - 1) / stripeCount}
	for i := range c.stripes {
		c.stripes[i].ll = list.New()
		c.stripes[i].m = make(map[string]*list.Element)
	}
	return c
}

// Get returns a copy of the cached answer for key, if present, however
// many windows it covers. The engine looks up through GetCovering; Get
// stays for bench/micro.go (its qcache.get_*_ns rows) and goes with the
// next change to bench/.
func (c *ResultCache) Get(key string) (Result, bool) {
	return c.GetCovering(key, 0, 0)
}

// GetCovering returns a copy of the answer under key, looked up by an
// index that now holds `windows` at the query's length: a hit when the
// entry is at most maxBehind windows short, which the caller makes up by scanning
// the windows gained and Putting the longer answer back (counted in
// Stats.Extended). An entry further behind is a miss — recomputing is
// the cheaper way to catch up — and stays until that fresh answer
// replaces it.
func (c *ResultCache) GetCovering(key string, windows, maxBehind int) (Result, bool) {
	s := &c.stripes[stripeOf(key)]
	s.mu.Lock()
	var val Result
	el, ok := s.m[key]
	if ok {
		val = el.Value.(*resultEntry).val
		ok = windows-val.Windows <= maxBehind
	}
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return Result{}, false
	}
	s.ll.MoveToFront(el)
	s.mu.Unlock()
	c.hits.Add(1)
	if val.Windows < windows {
		c.extended.Add(1)
	}
	return val.snapshot(), true
}

// Put stores an answer under key, evicting least recently used entries
// past the stripe's byte budget. An answer larger than the whole
// stripe budget is not stored (it would evict everything and then be
// evicted itself on the next Put).
//
// An incumbent under the same key yields only to an answer covering
// more windows. Racing fills at one version store the same answer, so
// the incumbent stays; a longer answer replaces it
// in place, and one that has outgrown the budget takes the incumbent
// out with it — left behind, it would be re-extended and dropped again
// by every later lookup.
func (c *ResultCache) Put(key string, r Result) {
	cost := entryBytes(key, r)
	fits := cost <= c.perBytes
	if fits {
		r = r.snapshot() // the caller keeps ownership of its slice
	}
	s := &c.stripes[stripeOf(key)]
	s.mu.Lock()
	var evicted uint64
	el, ok := s.m[key]
	switch {
	case ok && r.Windows <= el.Value.(*resultEntry).val.Windows:
		s.ll.MoveToFront(el)
	case ok && fits:
		e := el.Value.(*resultEntry)
		s.bytes += cost - entryBytes(key, e.val)
		e.val = r
		s.ll.MoveToFront(el)
	case ok:
		s.remove(el)
		evicted++
	case fits:
		s.m[key] = s.ll.PushFront(&resultEntry{key: key, val: r})
		s.bytes += cost
	}
	for s.bytes > c.perBytes {
		s.remove(s.ll.Back())
		evicted++
	}
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
}

// remove drops one entry from the stripe and its byte count.
func (s *resultStripe) remove(el *list.Element) {
	e := s.ll.Remove(el).(*resultEntry)
	delete(s.m, e.key)
	s.bytes -= entryBytes(e.key, e.val)
}

// Stats snapshots the cache counters and occupancy.
func (c *ResultCache) Stats() Stats {
	st := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Extended:  c.extended.Load(),
		Evictions: c.evictions.Load(),
	}
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		st.Entries += len(s.m)
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}

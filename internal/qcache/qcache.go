// Package qcache holds the serving-tier caches: a plan cache of
// validated, transformed queries and a versioned result cache of whole
// answers. Production traffic against a twin-subsequence index
// is highly repetitive — the same query bytes, eps, and k arrive over
// and over — so the engine caches the rewritten form of a query (skip
// validation + normalization on repeat) and the full result set (skip
// the traversal entirely) for as long as the answer still holds.
//
// Both caches are striped LRU maps: a key is routed to one of a fixed
// number of stripes by a multiplicative hash over its 8-byte words, so
// the hot path takes one stripe mutex, never a global one, and
// concurrent lookups of different queries proceed in parallel. Keys are
// the exact query bytes (plus parameters), compared by Go's string
// equality — a hash collision can cost a miss, never a wrong answer.
//
// Invalidation is structural, not scan-based, and an entry carries its
// index version in one of two places. The index is append-only: windows
// already indexed never change, so an answer that is a pure function of
// (query, parameters, window set) — a local TS-Index engine's range
// search and top-k — stays true of the windows it covered. Those
// entries record that window count (Result.Windows; on an append-only
// index it is the version) and keep one key across appends: a lookup
// that finds an entry a few windows behind gets it back (GetCovering)
// and the engine verifies only the windows gained, then Puts the longer
// answer over the old one. Every other answer — prefix searches, every
// path of a read-only cluster engine — embeds the engine's index epoch
// in its key, a counter bumped on every mutation:
// after an Append every lookup builds a key no stored entry can match,
// and the stale entries age out of the LRU under the byte budget.
// Either way nothing is ever walked or purged inline on the hot path.
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

// stripeCount is the lock-striping factor of both caches. 16 stripes
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

// Stats is a point-in-time snapshot of one cache's counters. Hits,
// misses, and evictions are cumulative since construction; Entries and
// Bytes are current occupancy. Extended counts the hits that returned
// an entry behind the index (result cache only; see GetCovering) — a
// share of Hits, not a third outcome.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Extended  uint64
	Evictions uint64
	Entries   int
	Bytes     int
}

// QueryKey encodes a raw query into the cache key string both caches
// share: the little-endian IEEE-754 bit patterns of the values,
// concatenated. Two queries collide only if every float64 is
// bit-identical — exactly the condition under which validation,
// transformation, and (at a fixed epoch and parameter set) the answer
// are identical too.
func QueryKey(q []float64) string {
	var b strings.Builder
	b.Grow(8 * len(q))
	writeBits(&b, q)
	return b.String()
}

// writeBits writes the little-endian bit pattern of each value of q.
func writeBits(b *strings.Builder, q []float64) {
	var w [8]byte
	for _, v := range q {
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
		b.Write(w[:])
	}
}

// resultKeyHeader is the length of a ResultKey's fixed part: path tag,
// epoch, two parameter slots.
const resultKeyHeader = 1 + 8 + 8 + 8

// QueryKeyOf returns the QueryKey(q) a ResultKey(…, q) ends with — the
// same bytes, shared, so a request that needs both keys encodes its
// query once.
func QueryKeyOf(resultKey string) string { return resultKey[resultKeyHeader:] }

// Path tags the search path a cached result answers — part of the
// result key, so a range search and a top-k over the same query bytes
// can never alias.
type Path byte

// Result-cache path tags, one per cached Engine search path.
const (
	PathSearch Path = 's' // Search / SearchCtx
	PathTopK   Path = 'k' // SearchTopK / SearchTopKCtx
	PathPrefix Path = 'p' // SearchShorterCtx
)

// ResultKey builds the result-cache key for one request: path tag,
// index epoch, two parameter slots (eps or float64(k), then one the
// engine leaves 0), then the raw query bytes. With the epoch in the
// key invalidation is a key mismatch — after a mutation no lookup can
// reach a pre-mutation entry. An answer that carries its version in
// Result.Windows instead is keyed with epoch 0 throughout.
func ResultKey(path Path, epoch uint64, a, b float64, q []float64) string {
	var head [resultKeyHeader]byte
	head[0] = byte(path)
	binary.LittleEndian.PutUint64(head[1:], epoch)
	binary.LittleEndian.PutUint64(head[9:], math.Float64bits(a))
	binary.LittleEndian.PutUint64(head[17:], math.Float64bits(b))
	var k strings.Builder // one allocation, no copy into the string
	k.Grow(resultKeyHeader + 8*len(q))
	k.Write(head[:])
	writeBits(&k, q)
	return k.String()
}

// PlanCache is the striped LRU of prepared queries: raw query bytes →
// the validated query mapped into the engine's value space. A hit
// skips length/finiteness validation and normalization. Entries are
// immutable once stored — callers must treat the returned slice as
// read-only (every search path already does).
type PlanCache struct {
	perCap  int // max entries per stripe
	stripes [stripeCount]planStripe

	hits, misses, evictions atomic.Uint64
}

type planStripe struct {
	mu sync.Mutex
	ll *list.List // front = most recently used
	m  map[string]*list.Element
}

type planEntry struct {
	key      string
	prepared []float64
}

// NewPlan builds a plan cache bounded to about `entries` prepared
// queries (rounded up to a multiple of the stripe count).
func NewPlan(entries int) *PlanCache {
	if entries < stripeCount {
		entries = stripeCount
	}
	c := &PlanCache{perCap: (entries + stripeCount - 1) / stripeCount}
	for i := range c.stripes {
		c.stripes[i].ll = list.New()
		c.stripes[i].m = make(map[string]*list.Element)
	}
	return c
}

// Get returns the prepared form of the query behind key, if cached.
// The returned slice is shared — read-only by contract.
func (c *PlanCache) Get(key string) ([]float64, bool) {
	s := &c.stripes[stripeOf(key)]
	s.mu.Lock()
	el, ok := s.m[key]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	s.ll.MoveToFront(el)
	p := el.Value.(*planEntry).prepared
	s.mu.Unlock()
	c.hits.Add(1)
	return p, true
}

// Put stores a prepared query, evicting the stripe's least recently
// used entry past the capacity.
func (c *PlanCache) Put(key string, prepared []float64) {
	s := &c.stripes[stripeOf(key)]
	s.mu.Lock()
	if el, ok := s.m[key]; ok {
		// Racing fills of the same query store identical plans; keep
		// the incumbent and refresh its recency.
		s.ll.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.m[key] = s.ll.PushFront(&planEntry{key: key, prepared: prepared})
	var evicted uint64
	for s.ll.Len() > c.perCap {
		old := s.ll.Back()
		s.ll.Remove(old)
		delete(s.m, old.Value.(*planEntry).key)
		evicted++
	}
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
}

// Stats snapshots the cache counters and occupancy.
func (c *PlanCache) Stats() Stats {
	st := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		st.Entries += len(s.m)
		s.mu.Unlock()
	}
	return st
}

// Result is one cached answer: the match set.
//
// Windows is the version of an answer whose key carries none: the
// number of windows, from start 0, the index held when the answer was
// computed — on an append-only index the answer is exact for precisely
// those. Epoch-keyed answers leave it 0.
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
// by ResultKey (path, epoch, params, query bytes).
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

// Get returns a copy of the cached answer for key, if present — the
// lookup for epoch-keyed entries, whose key is their whole version.
func (c *ResultCache) Get(key string) (Result, bool) {
	return c.GetCovering(key, 0, 0)
}

// GetCovering is Get for an entry versioned by Result.Windows, looked
// up by an index that now holds `windows`: a hit when the entry is at
// most maxBehind windows short, which the caller makes up by scanning
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
// more windows. Racing fills at one version store the same answer, and
// epoch-keyed answers (Windows 0 on both sides) are racing fills by
// construction, so the incumbent stays; a longer answer replaces it
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

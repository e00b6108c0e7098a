package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics and renders them in the Prometheus text
// exposition format. Names may carry baked-in labels —
// `twinsearch_query_seconds{path="search"}` registers one time series
// of the twinsearch_query_seconds family — so the hot path never
// formats label strings; callers resolve each labeled metric once at
// construction and keep the pointer. Methods are safe for concurrent
// use; the observe/inc fast paths are lock-free atomics.
type Registry struct {
	mu      sync.Mutex
	order   []string // registration order, for stable output
	entries map[string]*entry
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "counter"
	}
}

type entry struct {
	name string // full name including any {label="..."} suffix
	kind metricKind
	c    *Counter
	f    func() float64 // kindCounter funcs and kindGauge
	h    *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// Counter returns the counter registered under name, creating it on
// first use. Panics if the name is already registered as another kind.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.kind != kindCounter || e.c == nil {
			panic("obs: metric " + name + " already registered as " + e.kind.String())
		}
		return e.c
	}
	c := &Counter{}
	r.add(&entry{name: name, kind: kindCounter, c: c})
	return c
}

// CounterFunc registers (or replaces) a counter whose value is read
// from f at scrape time — the bridge for counters that already live
// elsewhere (cache hit totals, admission sheds).
func (r *Registry) CounterFunc(name string, f func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.add(&entry{name: name, kind: kindCounter, f: f})
}

// GaugeFunc registers (or replaces) a gauge read from f at scrape time.
func (r *Registry) GaugeFunc(name string, f func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.add(&entry{name: name, kind: kindGauge, f: f})
}

// Histogram returns the fixed-bucket histogram registered under name,
// creating it with the given ascending upper bounds on first use (a
// trailing +Inf bucket is implicit). Panics on a kind mismatch.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.kind != kindHistogram {
			panic("obs: metric " + name + " already registered as " + e.kind.String())
		}
		return e.h
	}
	h := newHistogram(buckets)
	r.add(&entry{name: name, kind: kindHistogram, h: h})
	return h
}

// add inserts or replaces under r.mu.
func (r *Registry) add(e *entry) {
	if _, ok := r.entries[e.name]; !ok {
		r.order = append(r.order, e.name)
	}
	r.entries[e.name] = e
}

// DefLatencyBuckets are the default latency histogram bounds, in
// seconds: 100µs to 10s, roughly geometric.
var DefLatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 10,
}

// baseName strips a {label} suffix: families group by base name in the
// exposition output.
func baseName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], strings.TrimSuffix(name[i+1:], "}")
	}
	return name, ""
}

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4): one `# TYPE` line per family
// followed by all of the family's samples, families in first-
// registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ordered := make([]*entry, 0, len(r.order))
	for _, name := range r.order {
		ordered = append(ordered, r.entries[name])
	}
	r.mu.Unlock()

	// Group by family (base name), preserving first-seen family order:
	// the format requires a family's samples to be contiguous.
	famOrder := make([]string, 0, len(ordered))
	fams := make(map[string][]*entry, len(ordered))
	for _, e := range ordered {
		base, _ := baseName(e.name)
		if _, ok := fams[base]; !ok {
			famOrder = append(famOrder, base)
		}
		fams[base] = append(fams[base], e)
	}

	for _, base := range famOrder {
		es := fams[base]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, es[0].kind); err != nil {
			return err
		}
		for _, e := range es {
			if err := writeEntry(w, e); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeEntry(w io.Writer, e *entry) error {
	base, labels := baseName(e.name)
	switch e.kind {
	case kindHistogram:
		return e.h.write(w, base, labels)
	default:
		var v float64
		if e.f != nil {
			v = e.f()
		} else {
			v = float64(e.c.Value())
		}
		_, err := fmt.Fprintf(w, "%s %s\n", e.name, formatFloat(v))
		return err
	}
}

// formatFloat renders a sample value; Prometheus accepts Go's shortest
// 'g' form plus the special +Inf/-Inf/NaN spellings.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram is a fixed-bucket histogram with lock-free observation:
// counts[i] holds observations ≤ bounds[i], the final slot the +Inf
// overflow. Observe allocates nothing.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram buckets must be strictly ascending")
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value. Allocation-free and safe for concurrent
// use.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// write renders the histogram's cumulative _bucket series plus _sum and
// _count, merging the le label into any baked-in labels.
func (h *Histogram) write(w io.Writer, base, labels string) error {
	prefix := ""
	if labels != "" {
		prefix = labels + ","
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", base, prefix, le, cum); err != nil {
			return err
		}
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", base, suffix, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", base, suffix, h.Count())
	return err
}

// sortedNames returns registered names sorted — test helper surface.
func (r *Registry) sortedNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]string(nil), r.order...)
	sort.Strings(out)
	return out
}

package twinsearch

import (
	"context"
	"fmt"
	"time"

	"twinsearch/internal/mbts/kernel"
	"twinsearch/internal/obs"
)

// qpath indexes the three raw-query search paths for the pre-resolved
// metric arrays: the hot path never formats a label or hashes a map.
type qpath uint8

const (
	qpSearch qpath = iota
	qpTopK
	qpPrefix
	numQPaths
)

var qpathNames = [numQPaths]string{"search", "topk", "prefix"}

// engineMetrics is the engine's metric set: one registry plus the
// per-path counters and latency histograms resolved once at
// construction. Every raw-query entry point feeds them, traced or not.
type engineMetrics struct {
	reg     *obs.Registry
	queries [numQPaths]*obs.Counter
	errors  [numQPaths]*obs.Counter
	seconds [numQPaths]*obs.Histogram
	traces  *obs.Counter
}

func newEngineMetrics() *engineMetrics {
	m := &engineMetrics{reg: obs.NewRegistry()}
	for p := qpath(0); p < numQPaths; p++ {
		label := `{path="` + qpathNames[p] + `"}`
		m.queries[p] = m.reg.Counter("twinsearch_queries_total" + label)
		m.errors[p] = m.reg.Counter("twinsearch_query_errors_total" + label)
		m.seconds[p] = m.reg.Histogram("twinsearch_query_seconds"+label, obs.DefLatencyBuckets)
	}
	m.traces = m.reg.Counter("twinsearch_traces_total")
	return m
}

// registerEngineGauges bridges the engine's existing counters — epoch,
// tail windows, cache hit/miss/eviction totals, worker count — into
// the registry as scrape-time funcs, so every count /stats reports has
// a sample here. Called once from newEngine; e is fully
// usable by scrape time even though indexes attach later.
func (e *Engine) registerEngineGauges() {
	reg := e.met.reg
	reg.GaugeFunc("twinsearch_epoch", func() float64 { return float64(e.Epoch()) })
	reg.GaugeFunc("twinsearch_tail_windows", func() float64 { return float64(e.ServingStats().TailWindows) })
	reg.GaugeFunc("twinsearch_workers", func() float64 { return float64(e.ex.Workers()) })
	reg.CounterFunc("twinsearch_slowlog_entries_total", func() float64 { return float64(e.slow.Total()) })
	if e.plan != nil {
		reg.CounterFunc(`twinsearch_cache_hits_total{cache="plan"}`, func() float64 { return float64(e.plan.Stats().Hits) })
		reg.CounterFunc(`twinsearch_cache_misses_total{cache="plan"}`, func() float64 { return float64(e.plan.Stats().Misses) })
		reg.CounterFunc(`twinsearch_cache_evictions_total{cache="plan"}`, func() float64 { return float64(e.plan.Stats().Evictions) })
		reg.GaugeFunc(`twinsearch_cache_entries{cache="plan"}`, func() float64 { return float64(e.plan.Stats().Entries) })
	}
	if e.res != nil {
		reg.CounterFunc(`twinsearch_cache_hits_total{cache="result"}`, func() float64 { return float64(e.res.Stats().Hits) })
		reg.CounterFunc(`twinsearch_cache_misses_total{cache="result"}`, func() float64 { return float64(e.res.Stats().Misses) })
		reg.CounterFunc(`twinsearch_cache_extended_total{cache="result"}`, func() float64 { return float64(e.res.Stats().Extended) })
		reg.CounterFunc(`twinsearch_cache_evictions_total{cache="result"}`, func() float64 { return float64(e.res.Stats().Evictions) })
		reg.GaugeFunc(`twinsearch_cache_entries{cache="result"}`, func() float64 { return float64(e.res.Stats().Entries) })
		reg.GaugeFunc(`twinsearch_cache_bytes{cache="result"}`, func() float64 { return float64(e.res.Stats().Bytes) })
	}
}

// registerIndexInfo publishes what the open that just finished put in
// place: an info series naming the kernel dispatch and the partition
// count, and the wall time since start, when the open was entered —
// validation, building or loading, and a mapped open's prefetch. Called
// once per successful open, as its last step.
func (e *Engine) registerIndexInfo(start time.Time) {
	reg, secs := e.met.reg, time.Since(start).Seconds()
	reg.GaugeFunc(fmt.Sprintf(`twinsearch_index_info{kernel=%q,shards="%d"}`, kernel.Active(), e.Shards()),
		func() float64 { return 1 })
	reg.GaugeFunc("twinsearch_index_open_seconds", func() float64 { return secs })
}

// registerClusterGauges surfaces the coordinator's cached membership
// view — each node's liveness fact — as gauges. Called from Open once
// the coordinator exists; the peer set is static (the topology file
// fixed it).
func (e *Engine) registerClusterGauges() {
	reg := e.met.reg
	for _, ps := range e.cl.Health() {
		name := ps.Name
		reg.GaugeFunc(fmt.Sprintf("twinsearch_cluster_node_alive{node=%q}", name), func() float64 {
			for _, p := range e.cl.Health() {
				if p.Name == name && p.Alive {
					return 1
				}
			}
			return 0
		})
	}
}

// Metrics returns the engine's metric registry — the payload behind
// the server's GET /metrics. Always non-nil; serving layers may
// register additional metrics (admission gauges) into it.
func (e *Engine) Metrics() *obs.Registry { return e.met.reg }

// SlowLog returns the engine's slow-query log, nil unless
// Options.SlowLogSize enabled it.
func (e *Engine) SlowLog() *obs.SlowLog { return e.slow }

// queryObs is the per-query observation state beginQuery hands to
// endQuery. A plain value — the disabled-tracing path must not
// allocate.
type queryObs struct {
	t0    time.Time
	root  *obs.Span // the query's current root span; nil when untraced
	owned bool      // the engine created (and must end) the trace
	path  qpath
}

// beginQuery opens one raw-query observation: it stamps the start
// time for the latency histogram and resolves tracing — a span already
// in ctx (forced, e.g. ?trace=1) is adopted, otherwise the sampler may
// start an engine-owned trace. With tracing off this allocates
// nothing.
func (e *Engine) beginQuery(ctx context.Context, p qpath) (context.Context, queryObs) {
	qo := queryObs{t0: time.Now(), path: p}
	if sp := obs.SpanFrom(ctx); sp != nil {
		qo.root = sp
	} else if e.sampler.Sample() {
		tr := obs.NewTrace("query:" + qpathNames[p])
		qo.root, qo.owned = tr.Root, true
		ctx = obs.WithSpan(ctx, tr.Root)
	}
	return ctx, qo
}

// endQuery closes the observation: per-path counters and latency
// histogram always; trace completion and the slow-query log when they
// apply. Allocation-free when the query was untraced and fast.
func (e *Engine) endQuery(qo queryObs, err error) {
	d := time.Since(qo.t0)
	e.met.queries[qo.path].Inc()
	if err != nil {
		e.met.errors[qo.path].Inc()
	}
	e.met.seconds[qo.path].Observe(d.Seconds())
	if qo.root != nil {
		if qo.owned {
			qo.root.End()
		}
		e.met.traces.Inc()
	}
	if th := e.slow.Threshold(); th > 0 && d >= th {
		ent := obs.SlowEntry{
			Time:       time.Now(),
			Path:       qpathNames[qo.path],
			DurationMs: float64(d) / float64(time.Millisecond),
			Trace:      qo.root.Clone(),
		}
		if err != nil {
			ent.Err = err.Error()
		}
		e.slow.Add(ent)
	}
}

// validateQueryCtx is validateQueryHit wrapped in a "validate" span when
// the query is traced, annotated with the plan-cache outcome. The
// untraced path falls straight through.
func (e *Engine) validateQueryCtx(ctx context.Context, q []float64, eps float64, rkey string) ([]float64, error) {
	sp := obs.SpanFrom(ctx)
	if sp == nil {
		tq, _, err := e.validateQueryHit(q, eps, rkey)
		return tq, err
	}
	vs := sp.StartChild("validate")
	defer vs.End()
	tq, hit, err := e.validateQueryHit(q, eps, rkey)
	switch {
	case e.plan == nil:
		vs.Set("plan_cache", "off")
	case hit:
		vs.Set("plan_cache", "hit")
	default:
		vs.Set("plan_cache", "miss")
	}
	if err != nil {
		vs.Set("error", err.Error())
	}
	return tq, err
}

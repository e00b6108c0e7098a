package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"twinsearch"
)

// sample is one measured latency and the slice it was measured in.
type sample struct {
	ms    float64
	slice int
}

// clientStats is what one closed-loop client saw: latencies in the order
// the ops completed, warm-up slice included; per slice, how many ops it
// completed in how long; per calibration phase, the reference latencies.
type clientStats struct {
	lat         [3][]sample // by opKind
	afterAppend []sample    // first /search after each acknowledged append
	attempted   int
	failed      int
	firstErr    string
	ops         []int       // per slice
	busy        []float64   // s per slice, load phase start to last reply
	ref         [][]float64 // us, per calibration phase
	refErr      error
}

// loop is the untraced measurement: `clients` closed-loop clients, one
// keep-alive connection each, against the served instance.
type loop struct {
	r     *run
	url   string
	acked []atomic.Int32 // pool workloads: acknowledged appends per pool query
	order []int          // pool queries in the order their appends were acknowledged

	// The slicing: slice 0 is warm-up and discarded, slices 1..slices are
	// measured, and calibration phase i comes before load phase i, with
	// one more after the last.
	slices    int
	cal, load time.Duration
	sync      *barrier
}

// post sends one request on the client's connection and reads the body
// fully into buf. It returns the HTTP status.
func post(hc *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// countOf reads the answer's "count" field: off the fixed prefix the
// server writes when it is there (a 100 KB body is not worth a full
// decode per request on the cores the server shares), by decoding
// otherwise.
func countOf(body []byte) (int, bool) {
	const prefix = `{"count":`
	if bytes.HasPrefix(body, []byte(prefix)) {
		n, i := 0, len(prefix)
		for ; i < len(body) && body[i] >= '0' && body[i] <= '9'; i++ {
			n = n*10 + int(body[i]-'0')
		}
		if i > len(prefix) {
			return n, true
		}
	}
	var v struct {
		Count *int `json:"count"`
	}
	if json.Unmarshal(body, &v) != nil || v.Count == nil {
		return 0, false
	}
	return *v.Count, true
}

// check decides whether a reply is a failure: transport error, non-200,
// a /search answer with fewer twins than it must have (every query is a
// copy of an indexed window; on pool workloads also one twin per
// append of it acknowledged before the request was sent — a smaller
// count is a stale answer), or a /topk answer without exactly k.
func check(o op, status int, err error, body []byte, minCount int) string {
	switch {
	case err != nil:
		return err.Error()
	case status != http.StatusOK:
		return fmt.Sprintf("%s: status %d: %.200s", opPath[o.kind], status, body)
	case o.kind == opAppend:
		return ""
	}
	n, ok := countOf(body)
	switch {
	case !ok:
		return fmt.Sprintf("%s: no count in %.200s", opPath[o.kind], body)
	case o.kind == opSearch && n < minCount:
		return fmt.Sprintf("/search: count %d, want at least %d", n, minCount)
	case o.kind == opTopK && n != topK:
		return fmt.Sprintf("/topk: count %d, want %d", n, topK)
	}
	return ""
}

// client is one closed-loop client. Every client passes every barrier,
// whatever happens to its requests, so none waits for one that left.
func (l *loop) client(c int, st *clientStats) {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	rtr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer rtr.CloseIdleConnections()
	rc := &http.Client{Transport: rtr}
	var buf bytes.Buffer
	ops := l.r.ops[c]
	appended := false
	for slice := 0; ; slice++ {
		l.sync.wait() // the other clients' last replies are in: the system is idle
		us, err := l.r.ref.burst(rc, l.cal, &buf)
		if err != nil && st.refErr == nil {
			st.refErr = err
		}
		st.ref = append(st.ref, us)
		l.sync.wait()
		if slice > l.slices {
			return
		}
		start := time.Now()
		end, last, done := start.Add(l.load), start, 0
		for len(ops) > 0 {
			o := ops[0]
			t0 := time.Now()
			if !t0.Before(end) {
				break
			}
			ops = ops[1:]
			minCount := 1
			if l.r.w.pool && o.kind == opSearch {
				minCount = l.r.base[o.q] + int(l.acked[o.q].Load())
			}
			status, err := post(hc, l.url+opPath[o.kind], l.r.bodies[o.kind][o.q], &buf)
			t1 := time.Now()
			st.attempted++
			if msg := check(o, status, err, buf.Bytes(), minCount); msg != "" {
				if st.failed++; st.firstErr == "" {
					st.firstErr = msg
				}
				continue
			}
			// The appending client's first /search after an acknowledged
			// append pays (or waits out) the re-freeze a median hides.
			afterAppend := o.kind == opSearch && appended
			switch o.kind {
			case opAppend:
				l.acked[o.q].Add(1)
				l.order = append(l.order, o.q) // client 0 only
				appended = true
			case opSearch:
				appended = false
			}
			last, done = t1, done+1
			m := sample{float64(t1.Sub(t0)) / 1e6, slice}
			st.lat[o.kind] = append(st.lat[o.kind], m)
			if afterAppend {
				st.afterAppend = append(st.afterAppend, m)
			}
		}
		st.ops = append(st.ops, done)
		st.busy = append(st.busy, last.Sub(start).Seconds())
	}
}

// procSnapshot is the process state the untraced loop is bracketed by.
type procSnapshot struct {
	mem     runtime.MemStats
	serving twinsearch.ServingStats
	steals  float64
}

func snapshot(eng *twinsearch.Engine) procSnapshot {
	var p procSnapshot
	runtime.ReadMemStats(&p.mem)
	p.serving = eng.ServingStats()
	p.steals = promValue(eng, "twinsearch_executor_steals_total")
	return p
}

// promValue reads one sample off the engine's own /metrics exposition —
// the benchmark and an operator share the instrumentation.
func promValue(eng *twinsearch.Engine, name string) float64 {
	var b strings.Builder
	if err := eng.Metrics().WritePrometheus(&b); err != nil {
		return 0
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			return v
		}
	}
	return 0
}

// peakRSSMB reads the process's high-water resident set from the kernel.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// slicing cuts cfg.seconds into the loop's slices.
func (r *run) slicing() (slices int, cal, load time.Duration) {
	length := math.Min(sliceSeconds, r.cfg.seconds)
	slices = int(math.Round(r.cfg.seconds / length))
	cal = time.Duration(length * calShare * float64(time.Second))
	return slices, cal, time.Duration(length*float64(time.Second)) - cal
}

// measure runs the closed loop — one warm-up slice, discarded, then
// cfg.seconds of measured slices — and turns what the clients saw into
// the end-to-end metrics, in calibrated time, plus the per-layer ones only
// the untraced run can give (cache ratios, steals, GC, tail percentiles).
func (r *run) measure(s *served, res *result) (*loop, error) {
	l := &loop{r: r, url: s.front.url, acked: make([]atomic.Int32, len(r.queries)), sync: newBarrier(clients)}
	l.slices, l.cal, l.load = r.slicing()
	stats := make([]clientStats, clients)
	runtime.GC()
	before := snapshot(s.eng)
	var wg sync.WaitGroup
	for c := range stats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.client(c, &stats[c])
		}()
	}
	wg.Wait()
	after := snapshot(s.eng)

	// scales[i] turns a time of load phase i into calibrated time.
	scales := make([]float64, l.slices+1)
	var refs []float64
	for i := range scales {
		var around []float64
		for _, st := range stats {
			if st.refErr != nil {
				return nil, st.refErr
			}
			around = append(append(around, st.ref[i]...), st.ref[i+1]...)
		}
		scales[i] = scale(around)
		if i > 0 {
			refs = append(refs, refNominalUS/scales[i])
		}
	}
	calibrated := func(xs []sample) []float64 {
		var out []float64
		for _, x := range xs {
			if x.slice > 0 {
				out = append(out, x.ms*scales[x.slice])
			}
		}
		return out
	}

	var lat [3][]float64
	var afterAppend []float64
	var qps float64
	measured := 0
	for _, st := range stats {
		for k := range lat {
			lat[k] = append(lat[k], calibrated(st.lat[k])...)
		}
		afterAppend = append(afterAppend, calibrated(st.afterAppend)...)
		res.Attempted += st.attempted
		res.Failed += st.failed
		if res.FirstError == "" {
			res.FirstError = st.firstErr
		}
		ops, busy := 0, 0.0
		for i := 1; i < len(st.ops); i++ {
			ops += st.ops[i]
			busy += st.busy[i] * scales[i]
		}
		if busy > 0 {
			qps += float64(ops) / busy
		}
		measured += ops
	}
	res.Requests = map[string]int{"search": len(lat[opSearch]), "topk": len(lat[opTopK]),
		"append": len(lat[opAppend]), "warmup_and_measured": res.Attempted}

	e := res.EndToEnd
	e["setup_s"] = med(r.setups, "s")
	e["search_p50_ms"] = timing(lat[opSearch], 0.50, "ms")
	e["search_p95_ms"] = timing(lat[opSearch], 0.95, "ms")
	e["topk_p50_ms"] = timing(lat[opTopK], 0.50, "ms")
	e["topk_p95_ms"] = timing(lat[opTopK], 0.95, "ms")
	e["qps"] = metric{Value: qps, Unit: "1/s", N: measured}
	e["index_bytes_per_window"] = metric{Value: float64(s.footprint) / float64(r.windows()), Unit: "bytes/window"}

	r.layer["bench.ref_request_us"] = med(refs, "us")
	res.RefUS = median(refs)
	r.layer["append_p50_ms"] = timing(lat[opAppend], 0.50, "ms")
	r.layer["search_after_append_p50_ms"] = timing(afterAppend, 0.50, "ms")
	r.layer["http.search_p99_ms"] = timing(lat[opSearch], 0.99, "ms")
	r.layer["http.topk_p99_ms"] = timing(lat[opTopK], 0.99, "ms")

	ops := float64(res.Attempted)
	rc, pc := after.serving.Result, after.serving.Plan
	rb, pb := before.serving.Result, before.serving.Plan
	r.set("qcache.result_hit_ratio", ratio(rc.Hits-rb.Hits, rc.Hits-rb.Hits+rc.Misses-rb.Misses))
	r.set("qcache.plan_hit_ratio", ratio(pc.Hits-pb.Hits, pc.Hits-pb.Hits+pc.Misses-pb.Misses))
	r.set("qcache.result_evictions", float64(rc.Evictions-rb.Evictions))
	r.set("qcache.result_bytes", float64(rc.Bytes))
	r.set("exec.steals_per_query", (after.steals-before.steals)/ops)
	r.set("proc.gc_pause_total_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6)
	r.set("proc.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC))
	return l, nil
}

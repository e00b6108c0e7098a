package server

// The serving tier's observability surface: ?trace=1 returns the span
// tree in the response envelope, /metrics speaks valid Prometheus text
// format, /debug/slowlog serves the ring buffer, and /healthz reports
// the runtime facts (kernel, GOMAXPROCS, uptime) — all drain-exempt
// where the issue demands it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"twinsearch"
	"twinsearch/internal/datasets"
	"twinsearch/internal/mbts/kernel"
	"twinsearch/internal/obs"
)

func newObsServer(t *testing.T) (*httptest.Server, *Handler, []float64) {
	t.Helper()
	ts := datasets.EEGN(83, 5000)
	eng, err := twinsearch.Open(ts, twinsearch.Options{
		L: 100, Shards: 2, SlowLogSize: 16, SlowLogThreshold: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	h := New(eng)
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	t.Cleanup(func() { eng.Close() })
	return srv, h, ts
}

func TestForcedTraceEnvelope(t *testing.T) {
	srv, _, ts := newObsServer(t)
	body := map[string]interface{}{"query": ts[:100], "eps": 0.3}

	// Untraced: no trace in the envelope.
	resp, raw := postJSON(t, srv.URL+"/search", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: %s: %s", resp.Status, raw)
	}
	var plain struct {
		Count int       `json:"count"`
		Trace *obs.Span `json:"trace"`
	}
	if err := json.Unmarshal(raw, &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil {
		t.Fatal("untraced response carries a trace")
	}

	// ?trace=1: span tree present, same answer, expected shape.
	resp, raw = postJSON(t, srv.URL+"/search?trace=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced search: %s: %s", resp.Status, raw)
	}
	var traced struct {
		Count int       `json:"count"`
		Trace *obs.Span `json:"trace"`
	}
	if err := json.Unmarshal(raw, &traced); err != nil {
		t.Fatal(err)
	}
	if traced.Trace == nil {
		t.Fatalf("?trace=1 response has no trace: %s", raw)
	}
	if traced.Count != plain.Count {
		t.Fatalf("traced count %d != untraced %d", traced.Count, plain.Count)
	}
	names := map[string]bool{}
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		names[s.Name] = true
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(traced.Trace)
	for _, want := range []string{"http /search", "admission", "validate", "traverse", "merge"} {
		if !names[want] {
			t.Fatalf("trace envelope missing %q span (got %v)", want, names)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv, h, ts := newObsServer(t)
	// Generate some traffic so counters and histograms have samples.
	for i := 0; i < 3; i++ {
		postJSON(t, srv.URL+"/search", map[string]interface{}{"query": ts[:100], "eps": 0.3})
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %s", resp.Status)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, buf.String())
	}
	for _, want := range []string{
		"twinsearch_queries_total{path=\"search\"} 3",
		"twinsearch_query_seconds_count{path=\"search\"} 3",
		"twinsearch_admission_inflight 0",
		"twinsearch_draining 0",
		`twinsearch_index_info{kernel="` + kernel.Active() + `",shards="2"} 1`,
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want+"\n")) {
			t.Fatalf("/metrics missing %q:\n%s", want, buf.String())
		}
	}
	// The open's wall time: a positive number of seconds, well under the
	// test's own run.
	var openSecs float64
	if i := bytes.Index(buf.Bytes(), []byte("\ntwinsearch_index_open_seconds ")); i < 0 {
		t.Fatalf("/metrics has no twinsearch_index_open_seconds:\n%s", buf.String())
	} else if _, err := fmt.Sscan(buf.String()[i+len("\ntwinsearch_index_open_seconds "):], &openSecs); err != nil || openSecs <= 0 || openSecs > 60 {
		t.Fatalf("twinsearch_index_open_seconds = %v (%v)", openSecs, err)
	}

	// Drain-exempt: still served, alongside /debug/slowlog and /healthz.
	h.BeginDrain()
	for _, path := range []string{"/metrics", "/debug/slowlog", "/healthz", "/stats"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s while draining: %s", path, resp.Status)
		}
	}
}

// TestStatsIsAViewOfMetrics: after a query mix — a repeated query's
// hit, an /append and the extended hit after it, a top-k — each count
// /stats reports equals its /metrics
// sample, and /stats has no count without one. The admission limits
// are configuration, not counts, and have no sample.
func TestStatsIsAViewOfMetrics(t *testing.T) {
	ts := datasets.EEGN(84, 3000)
	eng, err := twinsearch.Open(ts, twinsearch.Options{L: 100, ResultCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv := httptest.NewServer(NewWithConfig(eng, Config{MaxInflight: 4, MaxQueue: 8}))
	t.Cleanup(srv.Close)
	query := map[string]interface{}{"query": ts[700:800], "eps": 0.3}
	for _, req := range []struct {
		path string
		body map[string]interface{}
	}{
		{"/search", query}, {"/search", query},
		{"/append", map[string]interface{}{"values": ts[:40]}},
		{"/search", query},
		{"/topk", map[string]interface{}{"query": ts[700:800], "k": 5}},
	} {
		if resp, raw := postJSON(t, srv.URL+req.path, req.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s: %s", req.path, resp.Status, raw)
		}
	}

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s (%v)", path, resp.Status, err)
		}
		return buf.Bytes()
	}
	var stats map[string]interface{}
	if err := json.Unmarshal(get("/stats"), &stats); err != nil {
		t.Fatal(err)
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(string(get("/metrics")), "\n") {
		var v float64
		if name, val, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			if _, err := fmt.Sscan(val, &v); err == nil {
				samples[name] = v
			}
		}
	}

	sampleOf := map[string]string{
		"epoch":                 "twinsearch_epoch",
		"tail_windows":          "twinsearch_tail_windows",
		"admission.inflight":    "twinsearch_admission_inflight",
		"admission.queue_depth": "twinsearch_admission_queue_depth",
		"admission.shed":        "twinsearch_admission_shed_total",
		"draining":              "twinsearch_draining",
		"result_cache.extended": `twinsearch_cache_extended_total{cache="result"}`,
		"result_cache.bytes":    `twinsearch_cache_bytes{cache="result"}`,
	}
	for field, metric := range map[string]string{"hits": "hits_total", "misses": "misses_total", "evictions": "evictions_total", "entries": "entries"} {
		sampleOf["result_cache."+field] = fmt.Sprintf(`twinsearch_cache_%s{cache="result"}`, metric)
	}
	config := map[string]bool{"result_cache.enabled": true,
		"admission.enabled": true, "admission.max_inflight": true, "admission.max_queue": true}

	var check func(at string, v interface{})
	check = func(at string, v interface{}) {
		var got float64
		switch v := v.(type) {
		case map[string]interface{}:
			for k, sub := range v {
				if at != "" {
					k = at + "." + k
				}
				check(k, sub)
			}
			return
		case bool:
			if v {
				got = 1
			}
		case float64:
			got = v
		}
		if config[at] {
			return
		}
		metric, ok := sampleOf[at]
		if !ok {
			t.Errorf("/stats %s = %v has no /metrics sample", at, v)
			return
		}
		if want, ok := samples[metric]; !ok || want != got {
			t.Errorf("/stats %s = %v, /metrics %s = %v (present %v)", at, got, metric, want, ok)
		}
	}
	check("", stats)
	for _, moved := range []string{"epoch", "tail_windows", "result_cache.hits", "result_cache.extended", "result_cache.misses"} {
		if samples[sampleOf[moved]] == 0 {
			t.Errorf("the query mix left %s at 0", moved)
		}
	}
}

func TestSlowlogEndpoint(t *testing.T) {
	srv, _, ts := newObsServer(t)
	// Nanosecond threshold: every query is "slow".
	postJSON(t, srv.URL+"/search", map[string]interface{}{"query": ts[:100], "eps": 0.3})
	resp, err := http.Get(srv.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Entries []obs.SlowEntry `json:"entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Entries) == 0 {
		t.Fatal("slowlog empty after an above-threshold query")
	}
	e := out.Entries[0]
	if e.Path != "search" || e.DurationMs < 0 {
		t.Fatalf("bad slowlog entry: %+v", e)
	}
	// Sampled/slow-logged queries carry their trace only when one was
	// recorded; with tracing off the entry still logs path + duration.
}

func TestHealthzRuntimeInfo(t *testing.T) {
	srv, _, _ := newObsServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	kern, _ := body["kernel"].(string)
	if kern == "" {
		t.Fatalf("healthz has no kernel: %v", body)
	}
	if v, ok := body["gomaxprocs"].(float64); !ok || v < 1 {
		t.Fatalf("healthz gomaxprocs = %v", body["gomaxprocs"])
	}
	if _, ok := body["uptime_seconds"].(float64); !ok {
		t.Fatalf("healthz uptime_seconds = %v", body["uptime_seconds"])
	}
}

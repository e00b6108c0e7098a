package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter(`twinsearch_queries_total{path="search"}`)
	c.Add(3)
	r.Counter(`twinsearch_queries_total{path="topk"}`).Inc()
	r.GaugeFunc("twinsearch_epoch", func() float64 { return 7 })
	r.CounterFunc("twinsearch_sheds_total", func() float64 { return 11 })
	h := r.Histogram(`twinsearch_query_seconds{path="search"}`, []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(3)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE twinsearch_queries_total counter",
		`twinsearch_queries_total{path="search"} 3`,
		`twinsearch_queries_total{path="topk"} 1`,
		"# TYPE twinsearch_epoch gauge",
		"twinsearch_epoch 7",
		"twinsearch_sheds_total 11",
		"# TYPE twinsearch_query_seconds histogram",
		`twinsearch_query_seconds_bucket{path="search",le="0.001"} 1`,
		`twinsearch_query_seconds_bucket{path="search",le="0.1"} 2`,
		`twinsearch_query_seconds_bucket{path="search",le="+Inf"} 3`,
		`twinsearch_query_seconds_count{path="search"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// The two labeled counters share one family: its TYPE line must
	// appear exactly once.
	if strings.Count(out, "# TYPE twinsearch_queries_total") != 1 {
		t.Fatalf("family TYPE line duplicated:\n%s", out)
	}
	if got := h.Count(); got != 3 {
		t.Fatalf("histogram count = %d", got)
	}
	if s := h.Sum(); s < 3.05 || s > 3.06 {
		t.Fatalf("histogram sum = %v", s)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total")
	b := r.Counter("x_total")
	if a != b {
		t.Fatal("Counter not idempotent")
	}
	h1 := r.Histogram("h", []float64{1})
	h2 := r.Histogram("h", []float64{5}) // buckets of first registration win
	if h1 != h2 {
		t.Fatal("Histogram not idempotent")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Histogram("x_total", []float64{1})
}

func TestHistogramObserveAllocFree(t *testing.T) {
	h := newHistogram(DefLatencyBuckets)
	allocs := testing.AllocsPerRun(1000, func() { h.Observe(0.003) })
	if allocs != 0 {
		t.Fatalf("Observe allocates %v/op", allocs)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	bad := []string{
		"no_type_decl 1\n",
		"# TYPE x counter\nx{le=0.1} 1\n",           // unquoted label value
		"# TYPE x counter\n# TYPE x counter\nx 1\n", // duplicate TYPE
		"# TYPE x counter\nx one\n",                 // non-numeric value
		"",                                          // no samples at all
	}
	for _, in := range bad {
		if err := ValidateExposition(strings.NewReader(in)); err == nil {
			t.Fatalf("accepted invalid exposition %q", in)
		}
	}
}

// TestObsRaceHammer pounds the registry, a shared histogram, and the
// slow-query log from concurrent writers while readers scrape — the
// -race acceptance gate for the metrics layer.
func TestObsRaceHammer(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hammer_seconds", DefLatencyBuckets)
	c := r.Counter("hammer_total")
	l := NewSlowLog(16, time.Nanosecond)
	tr := NewTrace("hammer")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.Observe(float64(i%100) / 1000)
				sp := tr.Root.StartChild("w")
				sp.Set("i", i)
				sp.End()
				l.Add(SlowEntry{Path: "search", DurationMs: 1, Trace: tr.Root.Clone()})
			}
		}(w)
	}
	for rdr := 0; rdr < 2; rdr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var buf bytes.Buffer
				if err := r.WritePrometheus(&buf); err != nil {
					t.Error(err)
					return
				}
				if err := ValidateExposition(bytes.NewReader(buf.Bytes())); err != nil {
					t.Error(err)
					return
				}
				_ = l.Snapshot()
				_ = l.Total()
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if len(r.sortedNames()) != 2 {
		t.Fatalf("names = %v", r.sortedNames())
	}
}

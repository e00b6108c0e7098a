package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestSpecMatchesBenchmarkJSON pins BENCHMARK.json to spec.go in both
// directions: the file is exactly what -spec prints.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if want := benchmarkSpec(); !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json differs from spec.go; regenerate it with -spec\n got %+v\nwant %+v", got, want)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, specs := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range specs {
			if !name.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("metric name %q is malformed or used twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	for _, w := range workloadSpecs {
		if !name.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 || workloadByName(w.Name) == nil {
			t.Errorf("workload %q: malformed, reused, undefined, or its why is over 200 characters", w.Name)
		}
		seen[w.Name] = true
	}
}

// selfTimes is the arithmetic a reader of a trace file does: per query,
// each layer's span minus the span of the layer whose parent it is, in
// ns.
func selfTimes(spans []span) map[int]map[string]int64 {
	dur, child := map[int]map[string]int64{}, map[int]map[string]string{}
	for _, s := range spans {
		if dur[s.QueryID] == nil {
			dur[s.QueryID], child[s.QueryID] = map[string]int64{}, map[string]string{}
		}
		dur[s.QueryID][s.Layer] = s.EndNs - s.StartNs
		child[s.QueryID][s.Parent] = s.Layer
	}
	self := map[int]map[string]int64{}
	for q, d := range dur {
		self[q] = map[string]int64{}
		for layer, ns := range d {
			if c, ok := child[q][layer]; ok {
				ns -= d[c]
			}
			self[q][layer] = ns
		}
	}
	return self
}

// TestSmoke runs all four workloads and the ladder at smoke size and
// checks the run against the spec and against the bypasses the workloads
// were chosen for.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	cfg := config{seed: 1, trace: true, smoke: true, out: filepath.Join(dir, "smoke.json")}
	cfg.scale(false)
	file, err := runAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadSpecs {
		res := file.Workloads[w.Name]
		if res == nil {
			t.Fatalf("workload %s did not run", w.Name)
		}
		if !res.Correct || res.Failed != 0 || res.OracleChecked == 0 {
			t.Errorf("%s: correct=%v failed=%d oracle_checked=%d: %s", w.Name, res.Correct, res.Failed, res.OracleChecked, res.FirstError)
		}
		for _, c := range []struct {
			got  map[string]metric
			want []metricSpec
		}{{res.EndToEnd, endToEnd}, {res.PerLayer, perLayer}} {
			if len(c.got) != len(c.want) {
				t.Errorf("%s: %d metrics emitted, spec has %d", w.Name, len(c.got), len(c.want))
			}
			for _, m := range c.want {
				if got, ok := c.got[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s: metric %s missing or in unit %q, want %q", w.Name, m.Name, got.Unit, m.Unit)
				}
			}
		}
		for name, m := range res.EndToEnd {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; the contract wants it never 0", w.Name, name, m.Value)
			}
		}

		pl := res.PerLayer
		sharded, clustered := w.Name == "wide-sharded", w.Name == "cluster-r2"
		if w.Name == "point" && pl["qcache.result_hit_ratio"].Value != 0 {
			t.Errorf("point: result cache hit ratio %v, want 0 by construction", pl["qcache.result_hit_ratio"].Value)
		}
		if !sharded && (pl["shard.fanout_us"].Value != 0 || pl["exec.steals_per_query"].Value != 0) {
			t.Errorf("%s: fan-out is bypassed, yet fanout_us=%v steals=%v", w.Name, pl["shard.fanout_us"].Value, pl["exec.steals_per_query"].Value)
		}
		for _, m := range perLayer {
			if strings.HasPrefix(m.Name, "cluster.") && m.Name != "cluster.failovers" && (pl[m.Name].Value != 0) != clustered {
				t.Errorf("%s: %s = %v", w.Name, m.Name, pl[m.Name].Value)
			}
		}
		if pl["cluster.failovers"].Value != 0 {
			t.Errorf("%s: %v failovers", w.Name, pl["cluster.failovers"].Value)
		}
		if v := pl["obs.forced_trace_overhead_us"]; v.Value < 0 || (v.Unresolved && v.Value != 0) {
			t.Errorf("%s: forced trace overhead %+v must be non-negative or unresolved", w.Name, v)
		}

		// The trace file: one span per rung per query, self times
		// telescoping to the http span.
		f, err := os.Open(filepath.Join(dir, "trace-"+w.Name+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var s span
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
				t.Fatal(err)
			}
			spans = append(spans, s)
		}
		f.Close()
		self := selfTimes(spans)
		if len(self) != cfg.ladderOps {
			t.Errorf("%s: trace has %d queries, want %d", w.Name, len(self), cfg.ladderOps)
		}
		for q, layers := range self {
			var sum, http int64
			for _, ns := range layers {
				sum += ns
			}
			for _, s := range spans {
				if s.QueryID == q && s.Layer == "http" {
					http = s.EndNs - s.StartNs
				}
			}
			if sum != http || len(layers) < 3 {
				t.Errorf("%s query %d: self times of %d layers sum to %d ns, http span is %d ns", w.Name, q, len(layers), sum, http)
			}
		}
	}
}

// TestPairedDiffRefusesNoise: a difference inside the noise floor is
// unresolved and reads 0, one outside it is reported.
func TestPairedDiffRefusesNoise(t *testing.T) {
	a := []float64{10, 12, 8, 11, 9, 10.5, 9.5, 13, 7, 10}
	b := []float64{10.1, 11.7, 8.2, 11.1, 8.7, 10.6, 9.2, 13.3, 7.1, 9.8}
	if m := pairedDiff(a, b, "us"); !m.Unresolved || m.Value != 0 {
		t.Errorf("noise-sized difference reported as %+v", m)
	}
	for i := range b {
		b[i] -= 5
	}
	if m := pairedDiff(a, b, "us"); m.Unresolved || math.Abs(m.Value-5) > 0.5 {
		t.Errorf("difference of 5 reported as %+v", m)
	}
}

func TestVerdict(t *testing.T) {
	spec := metricSpec{Name: "qps", Unit: "1/s", Better: higher, Bound: 0.10}
	for _, c := range []struct {
		a, b metric
		want string
	}{
		{metric{Value: 1000}, metric{Value: 950}, "ok"},
		{metric{Value: 1000}, metric{Value: 1200}, "ok"},
		{metric{Value: 1000}, metric{Value: 880}, "worse"},
		{metric{Value: 1000, Noise: 150}, metric{Value: 880}, "unresolved"},
	} {
		if _, got := verdict(spec, c.a, c.b); got != c.want {
			t.Errorf("%v -> %v: %s, want %s", c.a.Value, c.b.Value, got, c.want)
		}
	}
	if err := comparable(environment{NProc: 2, Seconds: 10}, environment{NProc: 4, Seconds: 10}); err == nil {
		t.Error("runs on 2 and 4 CPUs compared")
	}
}

// TestCalibration: a host on which the reference request takes twice its
// nominal time halves every timing; the slicing covers -seconds exactly;
// the barrier releases all of a round's waiters and none of the next's.
func TestCalibration(t *testing.T) {
	if f := scale([]float64{2 * refNominalUS, 2 * refNominalUS, 9 * refNominalUS}); f != 0.5 {
		t.Errorf("scale at twice the nominal reference latency is %v, want 0.5", f)
	}
	for _, seconds := range []float64{15, 0.3} {
		r := &run{cfg: config{seconds: seconds}}
		slices, cal, load := r.slicing()
		if got := float64(slices) * (cal + load).Seconds(); math.Abs(got-seconds) > 1e-9 || cal <= 0 || load <= cal {
			t.Errorf("-seconds %v: %d slices of %v + %v", seconds, slices, cal, load)
		}
	}
	const n, rounds = 3, 100
	b := newBarrier(n)
	var passed [n]int
	done := make(chan struct{})
	for c := 0; c < n; c++ {
		go func() {
			for i := 0; i < rounds; i++ {
				passed[c] = i
				b.wait()
				for _, p := range passed {
					if p < i {
						t.Errorf("round %d released with a client still in round %d", i, p)
					}
				}
				b.wait()
			}
			done <- struct{}{}
		}()
	}
	for c := 0; c < n; c++ {
		<-done
	}
}

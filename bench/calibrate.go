package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Calibrated time. The reference box is a 2-vCPU VM on a shared host that
// changes speed by 15-30 % for minutes at a time: ten runs of one commit
// spread 15-30 % between their quartiles on every timing, and no estimator
// over one run's samples narrows that, because a whole run sits in one
// regime. What does track the regime (r = 0.95-0.99 over ten runs, every
// workload) is the latency of a fixed reference request measured in the
// same seconds: a POST on a keep-alive loopback connection to a handler of
// the benchmark's own that decodes a /search body, compares the query
// with refProbes windows of a 16 MB table and encodes a small answer — the
// same transport, JSON, scheduler wake-ups and cache misses a served query
// pays, and none of the code under test.
//
// So the loop runs in slices: a calibration phase, in which every client
// waits for the system to fall idle and then sends only reference
// requests, followed by a load phase. Every timing of a load phase is
// scaled by refNominalUS over the median reference latency of the two
// calibration phases around it, which states it in the milliseconds of a
// host on which the reference request takes refNominalUS. The system is
// idle while the reference is measured, so no change to the system can
// move the scale.
const (
	sliceSeconds = 1.0 // one calibration phase and one load phase
	calShare     = 0.1 // of a slice
	// setupCal is the calibration phase before and after each timed set-up.
	setupCal = 50 * time.Millisecond
	// refNominalUS is the reference request's median on a quiet reference
	// box; calibrated and raw times agree when the host runs at that speed.
	refNominalUS = 300.0
	refProbes    = 256
	refTableLen  = 1 << 21 // float64s: 16 MB, well past the 2 MB L2
)

// reference is the calibration server.
type reference struct {
	srv   *httpSrv
	url   string
	body  []byte // one marshalled /search request
	table []float64
	seq   atomic.Uint64
}

func newReference(body []byte) (*reference, error) {
	ref := &reference{body: body, table: make([]float64, refTableLen)}
	x := uint64(1)
	for i := range ref.table {
		x = x*6364136223846793005 + 1442695040888963407
		ref.table[i] = float64(x>>40) / (1 << 24)
	}
	srv, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	ref.srv, ref.url = srv, srv.url+"/ref"
	srv.serve(ref)
	return ref, nil
}

func (ref *reference) close() { ref.srv.stop() }

// ServeHTTP is the reference request's fixed work. The windows it reads
// move with a counter, so they are never the cached ones of the request
// before.
func (ref *reference) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	var q searchRequest
	if err := json.NewDecoder(req.Body).Decode(&q); err != nil || len(q.Query) == 0 {
		http.Error(w, "reference: bad request", http.StatusBadRequest)
		return
	}
	x := ref.seq.Add(1)*0x9e3779b97f4a7c15 | 1
	var out searchResponse
	for j := 0; j < refProbes; j++ {
		x = x*6364136223846793005 + 1442695040888963407
		pos := int((x >> 33) % uint64(len(ref.table)-len(q.Query)))
		win := ref.table[pos : pos+len(q.Query)]
		var d float64
		for i, v := range q.Query {
			d = math.Max(d, math.Abs(v-win[i]))
		}
		if j%16 == 0 {
			out.Matches = append(out.Matches, matchBody{Start: pos, Dist: &d})
		}
	}
	out.Count = len(out.Matches)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out) // the client sees a short body as an error
}

// burst sends reference requests back to back on hc for dur and returns
// their latencies in us.
func (ref *reference) burst(hc *http.Client, dur time.Duration, buf *bytes.Buffer) ([]float64, error) {
	var us []float64
	for end := time.Now().Add(dur); ; {
		t0 := time.Now()
		status, err := post(hc, ref.url, ref.body, buf)
		t1 := time.Now()
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		if err != nil {
			return nil, fmt.Errorf("reference request: %w", err)
		}
		us = append(us, float64(t1.Sub(t0))/1e3)
		if !t1.Before(end) {
			return us, nil
		}
	}
}

// phase is a calibration phase outside the loop: `clients` connections
// send reference requests for dur, as the loop's clients do.
func (ref *reference) phase(dur time.Duration) ([]float64, error) {
	out := make([][]float64, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			var buf bytes.Buffer
			out[c], errs[c] = ref.burst(&http.Client{Transport: tr}, dur, &buf)
		}()
	}
	wg.Wait()
	var all []float64
	for c := range out {
		if errs[c] != nil {
			return nil, errs[c]
		}
		all = append(all, out[c]...)
	}
	return all, nil
}

// scale is the factor that turns a time into calibrated time, given the
// reference latencies of the calibration phases around it.
func scale(us []float64) float64 { return refNominalUS / median(us) }

// barrier lets the loop's clients change phase together.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	round   int
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	round := b.round
	if b.waiting++; b.waiting == b.n {
		b.waiting = 0
		b.round++
		b.cond.Broadcast()
		return
	}
	for round == b.round {
		b.cond.Wait()
	}
}

package server

// Serving-tier tests: the /stats observability surface, the
// append↔cache epoch contract as an HTTP client sees it, and the
// admission-control shed and drain behavior.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"twinsearch"
	"twinsearch/internal/datasets"
)

// statsBody mirrors the /stats JSON for decoding in tests.
type statsBody struct {
	Epoch  uint64 `json:"epoch"`
	Result struct {
		Enabled  bool   `json:"enabled"`
		Hits     uint64 `json:"hits"`
		Misses   uint64 `json:"misses"`
		Extended uint64 `json:"extended"`
	} `json:"result_cache"`
	Admission admissionStats `json:"admission"`
	Draining  bool           `json:"draining"`
}

func getStats(t *testing.T, url string) statsBody {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats: status %d", resp.StatusCode)
	}
	var st statsBody
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// newCachedServer starts a server over a cache-enabled engine.
func newCachedServer(t *testing.T, cfg Config) (*httptest.Server, []float64) {
	t.Helper()
	ts := datasets.EEGN(83, 5000)
	eng, err := twinsearch.Open(ts, twinsearch.Options{L: 100, ResultCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewWithConfig(eng, cfg))
	t.Cleanup(srv.Close)
	return srv, ts
}

// TestServingSmoke is the CI smoke sequence end to end: a repeated
// query hits the result cache, /stats shows it, and after an /append
// bumps the epoch the next repeat is still a hit — the cached answer
// extended over the windows the append gained, never the stale one.
func TestServingSmoke(t *testing.T) {
	srv, ts := newCachedServer(t, Config{})
	req := map[string]interface{}{"query": ts[:100], "eps": 0.5}

	if resp, _ := postJSON(t, srv.URL+"/search", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("first search: status %d", resp.StatusCode)
	}
	st := getStats(t, srv.URL)
	if !st.Result.Enabled || st.Result.Misses != 1 || st.Result.Hits != 0 {
		t.Fatalf("after first search: %+v", st.Result)
	}
	epoch0 := st.Epoch

	resp, first := postJSON(t, srv.URL+"/search", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat search: status %d", resp.StatusCode)
	}
	st = getStats(t, srv.URL)
	if st.Result.Hits != 1 {
		t.Fatalf("repeat search did not hit the cache: %+v", st.Result)
	}

	// Append: the response already carries the bumped epoch, so any
	// client that has seen it is guaranteed fresh answers.
	aresp, abody := postJSON(t, srv.URL+"/append", map[string]interface{}{"values": ts[:100]})
	if aresp.StatusCode != http.StatusOK {
		t.Fatalf("append: status %d: %s", aresp.StatusCode, abody)
	}
	var ares struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(abody, &ares); err != nil {
		t.Fatal(err)
	}
	if ares.Epoch <= epoch0 {
		t.Fatalf("append response epoch %d not past pre-append %d", ares.Epoch, epoch0)
	}

	resp, second := postJSON(t, srv.URL+"/search", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-append search: status %d", resp.StatusCode)
	}
	st = getStats(t, srv.URL)
	if st.Result.Misses != 1 || st.Result.Hits != 2 || st.Result.Extended != 1 {
		t.Fatalf("post-append search was not an extended hit: %+v", st.Result)
	}
	if st.Epoch != ares.Epoch {
		t.Fatalf("/stats epoch %d != append response epoch %d", st.Epoch, ares.Epoch)
	}
	// The appended block duplicates the query window, so the answer must
	// strictly grow — the pre-append count here would mean the cached
	// answer was served as it stood.
	before, _ := countOf(first)
	if after, ok := countOf(second); !ok || after <= before {
		t.Fatalf("post-append search returned %d matches, pre-append %d: stale cached result", after, before)
	}

	// Extended once, the entry is current: the next repeat is a plain hit.
	if resp, third := postJSON(t, srv.URL+"/search", req); resp.StatusCode != http.StatusOK || !bytes.Equal(second, third) {
		t.Fatalf("repeat after the extension: status %d, body changed: %v", resp.StatusCode, !bytes.Equal(second, third))
	}
	if st = getStats(t, srv.URL); st.Result.Hits != 3 || st.Result.Extended != 1 {
		t.Fatalf("repeat after the extension: %+v", st.Result)
	}
}

// TestAdmissionShedsWith429 fills the in-flight slots and the queue by
// hand, then proves the next request sheds with 429 + Retry-After
// while /stats still answers and counts it.
func TestAdmissionShedsWith429(t *testing.T) {
	srv, ts := newCachedServer(t, Config{MaxInflight: 1, MaxQueue: 0, RetryAfter: 3 * time.Second})
	h := srv.Config.Handler.(*Handler)

	// Occupy the only in-flight slot; MaxQueue 0 means the next
	// arrival must shed immediately.
	if err := h.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer h.adm.release()

	resp, _ := postJSON(t, srv.URL+"/search", map[string]interface{}{"query": ts[:100], "eps": 0.5})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("expected 429, got %d", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", ra)
	}
	st := getStats(t, srv.URL)
	if st.Admission.Shed != 1 || !st.Admission.Enabled || st.Admission.MaxInflight != 1 {
		t.Fatalf("admission stats after shed: %+v", st.Admission)
	}
}

// TestAdmissionQueueReleases proves a queued request proceeds once the
// slot frees, and that a queued request's cancelled context answers
// 503, not 429.
func TestAdmissionQueueReleases(t *testing.T) {
	a := newAdmission(Config{MaxInflight: 1, MaxQueue: 1})
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		err := a.acquire(context.Background())
		if err == nil {
			a.release()
		}
		done <- err
	}()
	// The waiter is queued; a third arrival overflows MaxQueue and sheds.
	for a.queued.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := a.acquire(context.Background()); err != errOverloaded {
		t.Fatalf("overflow arrival: got %v, want errOverloaded", err)
	}
	a.release()
	if err := <-done; err != nil {
		t.Fatalf("queued request after release: %v", err)
	}

	// A queued request whose context dies gets its ctx error back.
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	if err := a.acquire(ctx); err != context.Canceled {
		t.Fatalf("cancelled waiter: got %v, want context.Canceled", err)
	}
	a.release()
}

// TestDrainKeepsStatsOpen: draining answers 503 on queries without
// consuming admission capacity, while /healthz and /stats stay open.
func TestDrainKeepsStatsOpen(t *testing.T) {
	srv, ts := newCachedServer(t, Config{MaxInflight: 1, MaxQueue: 0})
	h := srv.Config.Handler.(*Handler)
	h.BeginDrain()

	resp, _ := postJSON(t, srv.URL+"/search", map[string]interface{}{"query": ts[:100], "eps": 0.5})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining search: status %d, want 503", resp.StatusCode)
	}
	st := getStats(t, srv.URL)
	if !st.Draining {
		t.Fatal("/stats does not report draining")
	}
	if st.Admission.Shed != 0 || st.Admission.QueueDepth != 0 {
		t.Fatalf("drain consumed admission capacity: %+v", st.Admission)
	}
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("draining /healthz: status %d", hresp.StatusCode)
	}
}

// TestServingConcurrentClients hammers the cached server from many
// goroutines with interleaved appends; the handler's RW-mutex plus the
// window-versioned cache must keep every response internally consistent and
// the counters must add up. Run with -race this is the serving tier's
// stale-read detector.
func TestServingConcurrentClients(t *testing.T) {
	srv, ts := newCachedServer(t, Config{MaxInflight: 8, MaxQueue: 64})
	const readers, reads, appends = 6, 25, 5
	req := map[string]interface{}{"query": ts[:100], "eps": 0.5}

	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				resp, body := postJSON(t, srv.URL+"/search", req)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("search: status %d: %s", resp.StatusCode, body)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			resp, body := postJSON(t, srv.URL+"/append", map[string]interface{}{"values": ts[100*i : 100*(i+1)]})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("append: status %d: %s", resp.StatusCode, body)
				return
			}
		}
	}()
	wg.Wait()

	st := getStats(t, srv.URL)
	if got := st.Result.Hits + st.Result.Misses; got != readers*reads {
		t.Fatalf("cache counters inconsistent: %d hits + %d misses != %d searches",
			st.Result.Hits, st.Result.Misses, readers*reads)
	}
	// At least one append landed between two reads of the same query,
	// so the cache must have both hit and missed.
	if st.Result.Hits == 0 || st.Result.Misses == 0 {
		t.Fatalf("hammer did not exercise both cache outcomes: %+v", st.Result)
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"twinsearch"
	"twinsearch/internal/datasets"
	"twinsearch/internal/oracle"
	"twinsearch/internal/series"
)

func newTestServer(t *testing.T) (*httptest.Server, []float64) {
	t.Helper()
	ts := datasets.EEGN(81, 5000)
	eng, err := twinsearch.Open(ts, twinsearch.Options{L: 100})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(eng))
	t.Cleanup(srv.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHealth(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" || body["method"] != "TS-Index" {
		t.Fatalf("body = %v", body)
	}
	if body["windows"].(float64) != 4901 {
		t.Fatalf("windows = %v", body["windows"])
	}
}

func TestSearchEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)
	resp, raw := postJSON(t, srv.URL+"/search", map[string]interface{}{
		"query": ts[1000:1100], "eps": 0.3,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var body struct {
		Count   int `json:"count"`
		Matches []struct {
			Start int `json:"start"`
		} `json:"matches"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	if body.Count < 1 {
		t.Fatal("self match missing")
	}
	found := false
	for _, m := range body.Matches {
		if m.Start == 1000 {
			found = true
		}
	}
	if !found {
		t.Fatal("start=1000 missing from matches")
	}
}

// TestSearchShorterQuery: /search answers a query shorter than L — the
// definition's range answer over every window of the query's length —
// and refuses one longer than L with a 400 in the engine's words.
func TestSearchShorterQuery(t *testing.T) {
	srv, ts := newTestServer(t)
	ext := series.NewExtractor(ts, series.NormGlobal)
	for _, l := range []int{1, 37, 99} {
		q := ts[len(ts)-l:] // its own window exists only at length l
		resp, raw := postJSON(t, srv.URL+"/search", map[string]any{"query": q, "eps": 0.3})
		var body struct {
			Matches []struct{ Start int } `json:"matches"`
		}
		if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &body) != nil {
			t.Fatalf("l=%d: %s %s", l, resp.Status, raw)
		}
		want := oracle.Range(ext, ext.TransformQuery(q), 0.3)
		if len(body.Matches) != len(want) {
			t.Fatalf("l=%d: %d matches, the definition %d", l, len(body.Matches), len(want))
		}
		for i, m := range want {
			if body.Matches[i].Start != m.Start {
				t.Fatalf("l=%d: match %d starts at %d, the definition's at %d", l, i, body.Matches[i].Start, m.Start)
			}
		}
	}
	resp, raw := postJSON(t, srv.URL+"/search", map[string]any{"query": ts[:101], "eps": 0.3})
	if want := `{"error":"twinsearch: query length 101, engine built for L=100"}`; resp.StatusCode != http.StatusBadRequest || string(bytes.TrimSpace(raw)) != want {
		t.Fatalf("long query: %s %s, want 400 %s", resp.Status, raw, want)
	}
}

func TestSearchEndpointErrors(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, _ := postJSON(t, srv.URL+"/search", map[string]interface{}{
		"query": make([]float64, 101), "eps": 0.3,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("long query: status %d", resp.StatusCode)
	}
	// Wrong HTTP method.
	getResp, err := http.Get(srv.URL + "/search")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /search: status %d", getResp.StatusCode)
	}
	// Malformed JSON.
	malResp, err := http.Post(srv.URL+"/search", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	malResp.Body.Close()
	if malResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", malResp.StatusCode)
	}
}

func TestTopKEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)
	resp, raw := postJSON(t, srv.URL+"/topk", map[string]interface{}{
		"query": ts[2000:2100], "k": 3,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var body struct {
		Count   int `json:"count"`
		Matches []struct {
			Start int      `json:"start"`
			Dist  *float64 `json:"dist"`
		} `json:"matches"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	if body.Count != 3 {
		t.Fatalf("count = %d", body.Count)
	}
	if body.Matches[0].Start != 2000 || body.Matches[0].Dist == nil || *body.Matches[0].Dist != 0 {
		t.Fatalf("nearest = %+v", body.Matches[0])
	}
}

func TestAppendEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)
	more := datasets.EEGN(99, 300)
	resp, raw := postJSON(t, srv.URL+"/append", map[string]interface{}{"values": more})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var body map[string]int
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	if body["series_len"] != len(ts)+300 {
		t.Fatalf("series_len = %d", body["series_len"])
	}
}

func TestSubsequenceEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/subsequence?start=42")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body struct {
		Start  int       `json:"start"`
		Values []float64 `json:"values"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Start != 42 || len(body.Values) != 100 {
		t.Fatalf("body = %d values at %d", len(body.Values), body.Start)
	}
	bad, err := http.Get(srv.URL + "/subsequence?start=notanumber")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad start: status %d", bad.StatusCode)
	}
}

func TestConcurrentSearchAndAppend(t *testing.T) {
	srv, ts := newTestServer(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				resp, _ := postJSON(t, srv.URL+"/search", map[string]interface{}{
					"query": ts[1000:1100], "eps": 0.3,
				})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("search status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			resp, _ := postJSON(t, srv.URL+"/append", map[string]interface{}{
				"values": []float64{1, 2, 3, 4, 5},
			})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("append status %d", resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()
}

// TestShardedServer serves a sharded engine and checks the health
// report names the partition and search answers match an unsharded
// server's.
func TestShardedServer(t *testing.T) {
	ts := datasets.EEGN(81, 5000)
	single, err := twinsearch.Open(ts, twinsearch.Options{L: 100})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := twinsearch.Open(ts, twinsearch.Options{L: 100, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	srvSingle := httptest.NewServer(New(single))
	t.Cleanup(srvSingle.Close)
	srvSharded := httptest.NewServer(New(sharded))
	t.Cleanup(srvSharded.Close)

	resp, err := http.Get(srvSharded.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["shards"].(float64) != 4 {
		t.Fatalf("healthz shards = %v, want 4", health["shards"])
	}
	if w, ok := health["workers"].(float64); !ok || int(w) != sharded.Workers() {
		t.Fatalf("healthz workers = %v, want %d", health["workers"], sharded.Workers())
	}
	// The memory split: heap + mapped must cover the total, and a
	// heap-built engine maps nothing.
	heap, _ := health["heap_bytes"].(float64)
	mapped, ok := health["mapped_bytes"].(float64)
	if !ok || mapped != 0 {
		t.Fatalf("healthz mapped_bytes = %v, want 0 for a built engine", health["mapped_bytes"])
	}
	if total, _ := health["memory_bytes"].(float64); total != heap+mapped {
		t.Fatalf("healthz memory_bytes %v != heap %v + mapped %v", total, heap, mapped)
	}

	for _, path := range []string{"/search", "/topk"} {
		req := map[string]interface{}{"query": ts[1000:1100]}
		if path == "/search" {
			req["eps"] = 0.3
		} else {
			req["k"] = 5
		}
		respA, rawA := postJSON(t, srvSingle.URL+path, req)
		respB, rawB := postJSON(t, srvSharded.URL+path, req)
		if respA.StatusCode != http.StatusOK || respB.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d / %d", path, respA.StatusCode, respB.StatusCode)
		}
		if !bytes.Equal(rawA, rawB) {
			t.Fatalf("%s: sharded response differs:\n%s\nvs\n%s", path, rawB, rawA)
		}
	}

	resp2, _ := postJSON(t, srvSharded.URL+"/append", map[string]interface{}{
		"values": []float64{1, 2, 3},
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("append on sharded engine: status %d", resp2.StatusCode)
	}
}

package server

// The handler's side of internal/wire: odd-but-valid bodies answer as
// the encoding/json handler answered them, hostile bodies are bounded,
// and the cache-hit request stays inside its allocation budget.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"testing"

	"twinsearch"
	"twinsearch/internal/datasets"
	"twinsearch/internal/wire"
)

// stdlibAnswer is what the handler answered before internal/wire: the
// body through json.NewDecoder into the endpoint's struct, the engine
// call, the answer through toBody and json.NewEncoder. eng must be in
// the state the served engine was in before the request.
func stdlibAnswer(eng *twinsearch.Engine, path string, body []byte) (int, []byte) {
	encode := func(status int, v interface{}) (int, []byte) {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			panic(err)
		}
		return status, buf.Bytes()
	}
	fail := func(status int, err error) (int, []byte) {
		return encode(status, map[string]string{"error": err.Error()})
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	var ms []twinsearch.Match
	var err error
	switch path {
	case "/search":
		var req searchRequest
		if err := dec.Decode(&req); err != nil {
			return fail(http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		}
		ms, err = eng.SearchCtx(context.Background(), req.Query, req.Eps)
	case "/topk":
		var req topkRequest
		if err := dec.Decode(&req); err != nil {
			return fail(http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		}
		ms, err = eng.SearchTopKCtx(context.Background(), req.Query, req.K)
	case "/append":
		var req appendRequest
		if err := dec.Decode(&req); err != nil {
			return fail(http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		}
		if err := eng.Append(req.Values...); err != nil {
			return fail(http.StatusBadRequest, err)
		}
		return encode(http.StatusOK, map[string]interface{}{"series_len": eng.SeriesLen(), "epoch": eng.Epoch()})
	}
	if err != nil {
		return fail(searchStatus(err), err)
	}
	return encode(http.StatusOK, toBody(ms))
}

// TestOddBodiesAnswerAsEncodingJSON posts bodies no client library
// writes but encoding/json always took — and ones it always refused —
// to the three body-carrying endpoints, and holds status and bytes to
// the encoding/json pipeline over a twin engine.
func TestOddBodiesAnswerAsEncodingJSON(t *testing.T) {
	ts := datasets.EEGN(81, 3000)
	open := func() *twinsearch.Engine {
		eng, err := twinsearch.Open(ts, twinsearch.Options{L: 8})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	served, twin := open(), open()
	srv := httptest.NewServer(New(served))
	defer srv.Close()

	raw, _ := json.Marshal(ts[100:108])
	q := string(raw)
	nums := strings.Trim(q, "[]")
	for _, body := range []string{
		// Canonical.
		`{"query":` + q + `,"eps":0.4}`,
		`{"query":` + q + `,"k":3}`,
		`{"values":[0.25,-1.5e0,3]}`,
		`{}`,
		`{"query":[]}`,
		`{"values":[]}`,
		// Odd but valid.
		"\n\t {\r\n \"eps\" : 4E-1 , \"query\" : " + strings.ReplaceAll(q, ",", " ,\n") + " }\n\n",
		`{"query":` + q + `,"eps":0.4,"k":3}`,
		`{"query":` + q + `,"eps":0.4,"k":"three","values":{}}`,
		`{"QUERY":` + q + `,"Eps":0.4,"K":3,"VALUES":[1,2]}`,
		`{"qu\u0065ry":` + q + `,"\u0065ps":0.4,"\u006b":3,"valu\u0065s":[7]}`,
		`{"query":[9],"query":` + q + `,"eps":9,"eps":0.4,"k":9,"k":3,"values":[9],"values":[1]}`,
		`{"query":` + q + `,"query":null,"eps":0.4,"eps":null,"k":2,"k":null}`,
		`{"query":null,"eps":null,"k":null,"values":null}`,
		`{"query":` + q + `,"eps":0.4,"k":3,"values":[5]} trailing garbage`,
		`{"query":` + q + `,"eps":0.4,"k":3,"values":[5]}{"query":[1]}`,
		`{"query":[` + nums + `],"eps":0.40000000000000000000000000000000000000001,"k":3}`,
		`{"query":` + q + `,"eps":-0,"k":-0}`,
		`{"query":` + q + `,"eps":1e-400,"k":0}`,
		`{"query":` + q + `,"eps":-1,"k":-1}`,
		`{"query":[1,2,3],"eps":0.4,"k":3}`,
		// Refused, in encoding/json's words.
		``,
		`   `,
		`{`,
		`{"query":[1,2`,
		`nope`,
		`null`,
		`[1,2]`,
		`{"query":` + q + `,"eps":1e999}`,
		`{"query":[1e999],"eps":1}`,
		`{"query":` + q + `,"k":1.0}`,
		`{"query":` + q + `,"k":1e1}`,
		`{"query":` + q + `,"k":9223372036854775808}`,
		`{"query":"x","values":"y"}`,
		`{"query":[01],"values":[01]}`,
		`{"query":[+1],"values":[.5]}`,
		`{"query":[NaN],"values":[Infinity]}`,
		`{"query":[1,],"values":[1,]}`,
		`{"query":` + q + `,"eps":0.4,}`,
	} {
		for _, path := range []string{"/search", "/topk", "/append"} {
			resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			wantStatus, want := stdlibAnswer(twin, path, []byte(body))
			if resp.StatusCode != wantStatus || !bytes.Equal(got, want) {
				t.Errorf("%s %q:\n got %d %s\nwant %d %s", path, body, resp.StatusCode, got, wantStatus, want)
			}
		}
	}
}

// zeros is an endless body of JSON digits.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}

// TestBodyLimit: a body past wire.MaxBodyBytes is refused with 413
// instead of being buffered, and the handler keeps serving the client.
func TestBodyLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 64 MiB through a socket")
	}
	srv, ts := newTestServer(t)
	for _, path := range []string{"/search", "/topk", "/append"} {
		resp, err := srv.Client().Post(srv.URL+path, "application/json", io.LimitReader(zeros{}, wire.MaxBodyBytes+1))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), "request body too large") {
			t.Fatalf("%s over the limit: status %d: %.200s", path, resp.StatusCode, body)
		}
		raw, _ := json.Marshal(map[string]interface{}{"query": ts[1000:1100], "eps": 0.3})
		resp, err = srv.Client().Post(srv.URL+"/search", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if n, ok := countOf(body); resp.StatusCode != http.StatusOK || !ok || n < 1 {
			t.Fatalf("search after the refused %s: status %d: %.200s", path, resp.StatusCode, body)
		}
	}
}

func countOf(body []byte) (int, bool) {
	var v struct {
		Count *int `json:"count"`
	}
	if json.Unmarshal(body, &v) != nil || v.Count == nil {
		return 0, false
	}
	return *v.Count, true
}

// hitRequest is a reusable request/response pair around one body, so
// what a measurement counts is the handler's work and not the
// harness's: the body reader rewinds and the writer keeps nothing.
type hitRequest struct {
	req  *http.Request
	raw  []byte
	body bytes.Reader
	hdr  http.Header
	code int
	n    int
}

func newHitRequest(path string, v interface{}) *hitRequest {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	h := &hitRequest{req: httptest.NewRequest(http.MethodPost, path, nil), raw: raw, hdr: http.Header{}}
	h.req.ContentLength = int64(len(raw))
	h.req.Body = h
	return h
}

func (h *hitRequest) Read(p []byte) (int, error)  { return h.body.Read(p) }
func (h *hitRequest) Close() error                { return nil }
func (h *hitRequest) Header() http.Header         { return h.hdr }
func (h *hitRequest) WriteHeader(code int)        { h.code = code }
func (h *hitRequest) Write(p []byte) (int, error) { h.n += len(p); return len(p), nil }

// serve runs the request through handler and reports the status and
// the body's length.
func (h *hitRequest) serve(handler http.Handler) (int, int) {
	h.body.Reset(h.raw)
	clear(h.hdr)
	h.code, h.n = http.StatusOK, 0
	handler.ServeHTTP(h, h.req)
	return h.code, h.n
}

// newHitHandler is a handler over tsserve's default serving caches and
// the /search and /topk requests of one query, each already answered
// once so the next is a result-cache hit.
func newHitHandler(tb testing.TB) (*Handler, []*hitRequest) {
	tb.Helper()
	ts := datasets.EEGN(83, 20000)
	eng, err := twinsearch.Open(ts, twinsearch.Options{L: 100, PlanCache: -1, ResultCacheBytes: -1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { eng.Close() })
	h := New(eng)
	reqs := []*hitRequest{
		newHitRequest("/search", map[string]interface{}{"query": ts[7000:7100], "eps": 0.2}),
		newHitRequest("/topk", map[string]interface{}{"query": ts[7000:7100], "k": 10}),
	}
	for _, r := range reqs {
		if code, n := r.serve(h); code != http.StatusOK || n == 0 {
			tb.Fatalf("%s: status %d, %d bytes", r.req.URL.Path, code, n)
		}
	}
	return h, reqs
}

// TestHandlerAllocs pins the handler's allocation budget on the
// result-cache hit, the request the hot-append workload is made of:
// 6 (/search) and 7 (/topk) measured, the ceilings (7 and 9 in a
// -race build). Two are the engine's: the cache key, built in one
// allocation with the plan key as its tail (a second encoding of the
// query bytes would cost one more), and the answer copy. Through
// encoding/json the same requests cost 20 more for the decode and, on
// /topk, one per match for the *float64 of its dist, so either coming
// back fails here.
func TestHandlerAllocs(t *testing.T) {
	h, reqs := newHitHandler(t)
	ceilings := []float64{6, 7} // /search, /topk
	if raceBuild() {
		ceilings = []float64{7, 9}
	}
	for i, ceiling := range ceilings {
		r := reqs[i]
		got := testing.AllocsPerRun(200, func() {
			if code, _ := r.serve(h); code != http.StatusOK {
				t.Fatalf("%s: status %d", r.req.URL.Path, code)
			}
		})
		if got > ceiling {
			t.Errorf("%s result-cache hit: %.0f allocs/request, budget %.0f", r.req.URL.Path, got, ceiling)
		}
	}
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// BenchmarkHandlerSearchHit is the hot-append workload's common
// request in process: a /search the result cache answers, from
// ServeHTTP to the last byte written, no socket.
func BenchmarkHandlerSearchHit(b *testing.B) {
	h, reqs := newHitHandler(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code, _ := reqs[0].serve(h); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}

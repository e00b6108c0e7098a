package cluster_test

// The shard frame at both ends of the wire: the codec round-trips every
// value bit for bit and refuses every malformed frame without panicking
// or allocating for a hostile count; a node refuses what it refused
// when bodies were JSON with the same status and text, and anything
// that is not a frame of this version; and a coordinator fails over
// from a node that answers a bad frame or speaks another version.

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"twinsearch/internal/cluster"
	"twinsearch/internal/core"
	"twinsearch/internal/datasets"
	"twinsearch/internal/series"
)

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameRequest(a, b cluster.Request) bool {
	if a.Kind != b.Kind || a.Trace != b.Trace || a.K != b.K || a.LeafBudget != b.LeafBudget ||
		!sameBits(a.Eps, b.Eps) || !sameBits(a.Bound, b.Bound) || len(a.Query) != len(b.Query) {
		return false
	}
	for i := range a.Query {
		if !sameBits(a.Query[i], b.Query[i]) {
			return false
		}
	}
	return true
}

func sameAnswer(a, b cluster.Answer) bool {
	if len(a.Matches) != len(b.Matches) || (a.Stats == nil) != (b.Stats == nil) ||
		(a.Stats != nil && *a.Stats != *b.Stats) || !bytes.Equal(a.Trace, b.Trace) {
		return false
	}
	for i, m := range a.Matches {
		if m.Start != b.Matches[i].Start || !sameBits(m.Dist, b.Matches[i].Dist) {
			return false
		}
	}
	return true
}

// FuzzShardFrame: decoding arbitrary bytes never panics, and whatever
// decodes re-encodes to exactly those bytes (the layout has one
// spelling per value); and a request and an answer built from the
// inputs — data's 8-byte words as query values and match fields —
// survive encode → decode bit for bit.
func FuzzShardFrame(f *testing.F) {
	negZero := math.Copysign(0, -1)
	search := cluster.Request{Kind: cluster.KindSearch, Eps: 0.2, Query: []float64{1, negZero, 5e-324}}
	topk := cluster.Request{Kind: cluster.KindTopK, Trace: true, K: math.MaxInt, Bound: math.Inf(1), Query: []float64{0}}
	answer := cluster.Answer{Matches: []series.Match{{Start: 7, Dist: -1}, {Start: 9, Dist: negZero}},
		Stats: &core.Stats{NodesVisited: 3, Results: 2}, Trace: []byte(`{"name":"node:n0"}`)}
	for _, seed := range []struct {
		data       []byte
		eps, bound float64
		k, budget  int
	}{
		{search.AppendFrame(nil), 0.2, math.Inf(1), 5, 1},
		{topk.AppendFrame(nil), negZero, math.Inf(1), math.MaxInt, 0},
		{answer.AppendFrame(nil), 5e-324, 0, -1, math.MinInt},
		{(&cluster.Answer{}).AppendFrame(nil), math.NaN(), math.Inf(-1), 0, 0},
		{nil, 0, math.Inf(1), 0, 0},
		{[]byte{cluster.FrameVersion, 1, 0}, 1, 1, 1, 1},
	} {
		f.Add(seed.data, seed.eps, seed.bound, seed.k, seed.budget)
	}
	f.Fuzz(func(t *testing.T, data []byte, eps, bound float64, k, budget int) {
		if q, err := cluster.ParseRequest(data); err == nil {
			if got := q.AppendFrame(nil); !bytes.Equal(got, data) {
				t.Fatalf("request %x decoded and re-encoded as %x", data, got)
			}
		}
		if a, err := cluster.ParseAnswer(data); err == nil {
			if got := a.AppendFrame(nil); !bytes.Equal(got, data) {
				t.Fatalf("answer %x decoded and re-encoded as %x", data, got)
			}
		}

		words := make([]uint64, len(data)/8)
		for i := range words {
			for j := 0; j < 8; j++ {
				words[i] |= uint64(data[8*i+j]) << (8 * j)
			}
		}
		q := cluster.Request{Kind: cluster.KindSearch + cluster.Kind(uint(k)%4), Trace: k&1 == 1,
			Eps: eps, K: k, Bound: bound, LeafBudget: budget}
		a := cluster.Answer{Trace: data}
		for i, w := range words {
			q.Query = append(q.Query, math.Float64frombits(w))
			if i%2 == 1 {
				a.Matches = append(a.Matches, series.Match{Start: int(words[i-1]), Dist: math.Float64frombits(w)})
			}
		}
		if k%3 == 0 {
			a.Stats = &core.Stats{NodesVisited: k, NodesPruned: budget, LeavesReached: -k,
				Candidates: len(data), Abandons: math.MaxInt, Results: math.MinInt}
		}
		if len(a.Trace) == 0 {
			a.Trace = nil // an empty trace section decodes as none
		}
		gotQ, err := cluster.ParseRequest(q.AppendFrame(nil))
		if err != nil || !sameRequest(gotQ, q) {
			t.Fatalf("request %+v round-tripped as %+v (%v)", q, gotQ, err)
		}
		gotA, err := cluster.ParseAnswer(a.AppendFrame(nil))
		if err != nil || !sameAnswer(gotA, a) {
			t.Fatalf("answer %+v round-tripped as %+v (%v)", a, gotA, err)
		}
	})
}

// frameNode serves shards 0-2 of a 4-shard index at L = testL.
func frameNode(t *testing.T) (*cluster.NodeRPC, *series.Extractor) {
	t.Helper()
	ext := series.NewExtractor(datasets.RandomWalk(91, 1500), series.NormGlobal)
	_, path := buildSaved(t, ext, 4)
	n, err := cluster.OpenNode(&cluster.Topology{Index: path, Nodes: []cluster.NodeSpec{
		{Name: "n0", Addr: "http://unused", Shards: []int{0, 1, 2}}}}, "n0", ext, cluster.NodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return cluster.NewNodeRPC(n), ext
}

// TestShardFrameRefusals holds every refusal of the shard RPC to its
// status and text: the node-side screens keep the words they had when
// bodies were JSON, and a body that is not a well-formed frame of this
// version for this endpoint — an old-style JSON body included — is
// refused before it reaches them.
func TestShardFrameRefusals(t *testing.T) {
	h, ext := frameNode(t)
	q := ext.ExtractCopy(300, testL)
	withValue := func(i int, v float64) []float64 {
		c := append([]float64(nil), q...)
		c[i] = v
		return c
	}
	frame := func(r cluster.Request) []byte { return r.AppendFrame(nil) }
	search := frame(cluster.Request{Kind: cluster.KindSearch, Eps: 0.4, Query: q})
	huge := append(append([]byte(nil), search[:35]...), 0xff, 0xff, 0xff, 0xff)
	jsonBody, _ := json.Marshal(map[string]any{"query": q, "eps": 0.4})
	const bad = `bad request body: malformed shard frame: `

	for _, tc := range []struct {
		name, path, ctype string
		body              []byte
		status            int
		text              string // the error, or "" for a 200
	}{
		{"search", "/shard/search", "", search, 200, ""},
		{"topk unbounded", "/shard/topk", "", frame(cluster.Request{Kind: cluster.KindTopK, K: 3, Bound: math.Inf(1), Query: q}), 200, ""},
		{"topk bound -0", "/shard/topk", "", frame(cluster.Request{Kind: cluster.KindTopK, K: 3, Bound: math.Copysign(0, -1), Query: q}), 200, ""},
		{"topk ignores eps", "/shard/topk", "", frame(cluster.Request{Kind: cluster.KindTopK, K: 3, Eps: math.NaN(), Bound: math.Inf(1), Query: q}), 200, ""},
		{"prefix", "/shard/prefix", "", frame(cluster.Request{Kind: cluster.KindPrefix, Eps: 0.4, Query: q[:testL/2]}), 200, ""},
		{"approx", "/shard/approx", "", frame(cluster.Request{Kind: cluster.KindApprox, Eps: 0.4, LeafBudget: 1, Query: q}), 200, ""},

		// The node's screens, in the words they always had.
		{"short query", "/shard/search", "", frame(cluster.Request{Kind: cluster.KindSearch, Eps: 0.4, Query: q[:2]}), 400, "query length 2, node indexes L=32"},
		{"empty query", "/shard/approx", "", frame(cluster.Request{Kind: cluster.KindApprox, Eps: 0.4, LeafBudget: 5}), 400, "query length 0, node indexes L=32"},
		{"NaN value", "/shard/search", "", frame(cluster.Request{Kind: cluster.KindSearch, Eps: 0.4, Query: withValue(3, math.NaN())}), 400, "non-finite query value NaN at position 3"},
		{"Inf value", "/shard/prefix", "", frame(cluster.Request{Kind: cluster.KindPrefix, Eps: 0.4, Query: withValue(1, math.Inf(-1))[:4]}), 400, "non-finite query value -Inf at position 1"},
		{"negative eps", "/shard/search", "", frame(cluster.Request{Kind: cluster.KindSearch, Eps: -1, Query: q}), 400, "invalid threshold -1"},
		{"NaN eps", "/shard/approx", "", frame(cluster.Request{Kind: cluster.KindApprox, Eps: math.NaN(), LeafBudget: 5, Query: q}), 400, "invalid threshold NaN"},
		{"NaN bound", "/shard/topk", "", frame(cluster.Request{Kind: cluster.KindTopK, K: 3, Bound: math.NaN(), Query: q}), 400, "invalid bound NaN"},
		{"negative bound", "/shard/topk", "", frame(cluster.Request{Kind: cluster.KindTopK, K: 3, Bound: -0.5, Query: q}), 400, "invalid bound -0.5"},
		{"zero budget", "/shard/approx", "", frame(cluster.Request{Kind: cluster.KindApprox, Eps: 0.4, Query: q}), 400, "leaf budget 0; a positive probe count is required"},
		{"negative budget", "/shard/approx", "", frame(cluster.Request{Kind: cluster.KindApprox, Eps: 0.4, LeafBudget: -1, Query: q}), 400, "leaf budget -1; a positive probe count is required"},

		// Not a frame of this version for this endpoint.
		{"old-style JSON body", "/shard/search", "application/json", jsonBody, 415,
			`Content-Type "application/json"; the shard RPC takes ` + cluster.FrameContentType + ` frames`},
		{"no Content-Type", "/shard/topk", "-", search, 415,
			`Content-Type ""; the shard RPC takes ` + cluster.FrameContentType + ` frames`},
		{"JSON in a frame", "/shard/search", "", jsonBody, 400, bad + "version 123, this build speaks 1"},
		{"empty", "/shard/search", "", nil, 400, bad + "truncated"},
		{"next version", "/shard/search", "", append([]byte{cluster.FrameVersion + 1}, search[1:]...), 400, bad + "version 2, this build speaks 1"},
		{"unknown kind", "/shard/search", "", append([]byte{cluster.FrameVersion, 9}, search[2:]...), 400, bad + "kind 9 sent to /shard/search"},
		{"unknown flags", "/shard/search", "", append([]byte{cluster.FrameVersion, 1, 2}, search[3:]...), 400, bad + "flag byte 2"},
		{"wrong endpoint", "/shard/topk", "", search, 400, bad + "kind 1 sent to /shard/topk"},
		{"truncated header", "/shard/search", "", search[:20], 400, bad + "truncated"},
		{"truncated query", "/shard/search", "", search[:len(search)-1], 400, bad + "count 32 of 8-byte elements in 255 bytes"},
		{"trailing bytes", "/shard/search", "", append(append([]byte(nil), search...), 0, 0), 400, bad + "2 trailing bytes"},
		{"huge count", "/shard/search", "", huge, 400, bad + "count 4294967295 of 8-byte elements in 0 bytes"},
	} {
		r := httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(tc.body))
		switch tc.ctype {
		case "":
			r.Header.Set("Content-Type", cluster.FrameContentType)
		case "-":
		default:
			r.Header.Set("Content-Type", tc.ctype)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if tc.status == 200 {
			if _, err := cluster.ParseAnswer(rec.Body.Bytes()); rec.Code != 200 || err != nil ||
				rec.Header().Get("Content-Type") != cluster.FrameContentType {
				t.Errorf("%s: status %d %q, %v: %.200q", tc.name, rec.Code, rec.Header().Get("Content-Type"), err, rec.Body.Bytes())
			}
			continue
		}
		want, _ := json.Marshal(map[string]string{"error": tc.text})
		if rec.Code != tc.status || rec.Body.String() != string(want)+"\n" {
			t.Errorf("%s: %d %s, want %d %s", tc.name, rec.Code, rec.Body.Bytes(), tc.status, want)
		}
	}

	// A declared length past the body limit is refused before a byte is
	// read, and a GET before anything else.
	big := httptest.NewRequest(http.MethodPost, "/shard/search", bytes.NewReader(search))
	big.Header.Set("Content-Type", cluster.FrameContentType)
	big.ContentLength = 1 << 40
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, big)
	if rec.Code != http.StatusRequestEntityTooLarge || rec.Body.String() != "{\"error\":\"bad request body: http: request body too large\"}\n" {
		t.Errorf("declared 1 TiB body: %d %s", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/shard/approx", nil))
	if rec.Code != http.StatusMethodNotAllowed || rec.Body.String() != "{\"error\":\"POST required\"}\n" {
		t.Errorf("GET: %d %s", rec.Code, rec.Body)
	}
}

// TestHostileNodeFailsOver: a replica answering 200 with a frame that
// claims a huge count, stops short, runs on, or declares a body past the
// limit makes its attempt fail over — the query answers exactly, from
// the sibling — and is marked down with the decoder's words. Never a
// panic, never a short answer.
func TestHostileNodeFailsOver(t *testing.T) {
	ext := series.NewExtractor(datasets.EEGN(87, 1200), series.NormGlobal)
	local, path := buildSaved(t, ext, 4)
	var mode atomic.Value
	mode.Store("")
	cl, _ := startClusterB(t, ext, path, [][]int{{0, 1, 2, 3}}, 2, cluster.Options{RefreshInterval: -1},
		func(i int, h http.Handler) http.Handler {
			if i != 0 {
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				m := mode.Load().(string)
				if m == "" || !strings.HasPrefix(r.URL.Path, "/shard/") {
					h.ServeHTTP(w, r)
					return
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, r)
				b := rec.Body.Bytes()
				switch m {
				case "huge count":
					b = []byte{cluster.FrameVersion, 0xff, 0xff, 0xff, 0xff}
				case "truncated":
					b = b[:len(b)-1]
				case "trailing bytes":
					b = append(b, 0)
				case "declared past the limit":
					w.Header().Set("Content-Length", strconv.Itoa(1<<30))
				}
				w.WriteHeader(http.StatusOK)
				w.Write(b)
			})
		})
	ctx := context.Background()
	q := ext.ExtractCopy(500, testL)
	want, _ := local.SearchStats(q, 0.3)
	for _, m := range []string{"huge count", "truncated", "trailing bytes", "declared past the limit"} {
		mode.Store(m)
		got, err := cl.Search(ctx, q, 0.3)
		if err != nil || !sameMatches(want, got) {
			t.Fatalf("%s: %d matches, %v; want %d", m, len(got), err, len(want))
		}
		if p := cl.Health()[0]; p.Alive || !strings.HasPrefix(p.Error, "/shard/search: answer: ") {
			t.Fatalf("%s: hostile node %+v, want down with the answer's error", m, p)
		}
		cl.Sweep(ctx) // its /healthz is honest: up again, and primary
		if !cl.Health()[0].Alive {
			t.Fatalf("%s: sweep left the node down", m)
		}
	}
}

// TestFrameVersionSkew: a node reporting another frame version — a
// newer build, or one from before the frame, which reports none — is
// refused at open, and refused at rejoin by the sweep while its sibling
// answers.
func TestFrameVersionSkew(t *testing.T) {
	ext := series.NewExtractor(datasets.EEGN(89, 1200), series.NormGlobal)
	local, path := buildSaved(t, ext, 4)
	var version atomic.Int64
	version.Store(cluster.FrameVersion)
	wrap := func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/healthz" {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			var hd cluster.NodeHealth
			if err := json.Unmarshal(rec.Body.Bytes(), &hd); err != nil {
				t.Error(err)
			}
			hd.Frame = int(version.Load())
			json.NewEncoder(w).Encode(hd)
		})
	}
	ctx := context.Background()
	cl, srvs := startClusterB(t, ext, path, [][]int{{0, 1, 2, 3}}, 2, cluster.Options{RefreshInterval: -1}, wrap)

	for _, v := range []int64{0, cluster.FrameVersion + 1} {
		version.Store(v)
		topo := &cluster.Topology{Index: path, Replicas: 2, Nodes: []cluster.NodeSpec{
			{Name: "g0r0", Addr: srvs[0].URL, Shards: []int{0, 1, 2, 3}},
			{Name: "g0r1", Addr: srvs[1].URL, Shards: []int{0, 1, 2, 3}}}}
		if c, err := cluster.OpenCoordinator(ctx, topo, ext, testL, cluster.Options{RefreshInterval: -1}); err == nil {
			c.Close()
			t.Fatalf("open with a node at frame version %d succeeded", v)
		} else if !strings.Contains(err.Error(), "g0r0") || !strings.Contains(err.Error(), "frame version "+strconv.FormatInt(v, 10)) {
			t.Fatalf("open with a node at frame version %d: %v", v, err)
		}

		cl.Sweep(ctx)
		if p := cl.Health()[0]; p.Alive || !strings.Contains(p.Error, "frame version") {
			t.Fatalf("sweep over a node at frame version %d: %+v, want down", v, p)
		}
		want, _ := local.SearchStats(ext.ExtractCopy(600, testL), 0.3)
		if got, err := cl.Search(ctx, ext.ExtractCopy(600, testL), 0.3); err != nil || !sameMatches(want, got) {
			t.Fatalf("query beside a skewed node: %d matches, %v", len(got), err)
		}
		version.Store(cluster.FrameVersion)
		cl.Sweep(ctx)
		if !cl.Health()[0].Alive {
			t.Fatal("sweep did not take the node back at the right version")
		}
	}
}

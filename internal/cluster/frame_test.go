package cluster_test

// The shard frame at both ends of the wire: the codec round-trips every
// value bit for bit and refuses every malformed frame without panicking
// or allocating for a hostile count; a node refuses what it refused
// when bodies were JSON with the same status and text, and anything
// that is not a frame of this version; and a coordinator fails over
// from a node that answers a bad frame or envelope or speaks another
// version.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
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
	if a.Kind != b.Kind || a.Trace != b.Trace || a.K != b.K ||
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
		k          int
	}{
		{search.AppendFrame(nil), 0.2, math.Inf(1), 5},
		{topk.AppendFrame(nil), negZero, math.Inf(1), math.MaxInt},
		{answer.AppendFrame(nil), 5e-324, 0, -1},
		{(&cluster.Answer{}).AppendFrame(nil), math.NaN(), math.Inf(-1), 0},
		{nil, 0, math.Inf(1), 0},
		{[]byte{cluster.FrameVersion, 1, 0}, 1, 1, 1},
	} {
		f.Add(seed.data, seed.eps, seed.bound, seed.k)
	}
	f.Fuzz(func(t *testing.T, data []byte, eps, bound float64, k int) {
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
		q := cluster.Request{Kind: cluster.KindSearch + cluster.Kind(uint(k)%2), Trace: k&1 == 1,
			Eps: eps, K: k, Bound: bound}
		a := cluster.Answer{Trace: data}
		for i, w := range words {
			q.Query = append(q.Query, math.Float64frombits(w))
			if i%2 == 1 {
				a.Matches = append(a.Matches, series.Match{Start: int(words[i-1]), Dist: math.Float64frombits(w)})
			}
		}
		if k%3 == 0 {
			a.Stats = &core.Stats{NodesVisited: k, NodesPruned: len(words), LeavesReached: -k,
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
func frameNode(t *testing.T) (*nodeServer, *series.Extractor) {
	t.Helper()
	ext := series.NewExtractor(datasets.RandomWalk(91, 1500), series.NormGlobal)
	_, path := buildSaved(t, ext, 4)
	n, err := cluster.OpenNode(&cluster.Topology{Index: path, Nodes: []cluster.NodeSpec{
		{Name: "n0", Addr: "http://unused", Shards: []int{0, 1, 2}}}}, "n0", ext, cluster.NodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return serveNode(t, n, 0, nil), ext
}

// envelope is an answer envelope as a node writes one.
func envelope(status uint32, body []byte) []byte {
	b := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, status), uint32(len(body)))
	return append(b, body...)
}

// TestShardFrameRefusals holds every refusal of the shard RPC to its
// status and text, all on one stream, which a refusal leaves in step:
// the node-side screens keep the words they have always had, and a
// frame that is not a well-formed request of this version — JSON
// included — is refused before it reaches them. Off the stream, the
// per-query POST routes are gone and a GET without the Upgrade is
// answered 426; on it, a declared length past the body limit is
// refused 413 and the stream closes.
func TestShardFrameRefusals(t *testing.T) {
	srv, ext := frameNode(t)
	q := ext.ExtractCopy(300, testL)
	withValue := func(i int, v float64) []float64 {
		c := append([]float64(nil), q...)
		c[i] = v
		return c
	}
	frame := func(r cluster.Request) []byte { return r.AppendFrame(nil) }
	search := frame(cluster.Request{Kind: cluster.KindSearch, Eps: 0.4, Query: q})
	huge := append(append([]byte(nil), search[:27]...), 0xff, 0xff, 0xff, 0xff)
	jsonBody, _ := json.Marshal(map[string]any{"query": q, "eps": 0.4})
	const bad = `bad request body: malformed shard frame: `

	ctx := context.Background()
	st, err := cluster.DialStream(ctx, http.DefaultClient, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, tc := range []struct {
		name   string
		body   []byte
		status int
		text   string // the error, or "" for a 200
	}{
		{"search", search, 200, ""},
		{"topk unbounded", frame(cluster.Request{Kind: cluster.KindTopK, K: 3, Bound: math.Inf(1), Query: q}), 200, ""},
		{"topk bound -0", frame(cluster.Request{Kind: cluster.KindTopK, K: 3, Bound: math.Copysign(0, -1), Query: q}), 200, ""},
		{"topk ignores eps", frame(cluster.Request{Kind: cluster.KindTopK, K: 3, Eps: math.NaN(), Bound: math.Inf(1), Query: q}), 200, ""},
		{"shorter", frame(cluster.Request{Kind: cluster.KindSearch, Eps: 0.4, Query: q[:testL/2]}), 200, ""},
		{"length 1", frame(cluster.Request{Kind: cluster.KindSearch, Eps: 0.4, Query: q[:1]}), 200, ""},

		// The node's screens, in the words they always had.
		{"short top-k query", frame(cluster.Request{Kind: cluster.KindTopK, K: 3, Bound: math.Inf(1), Query: q[:2]}), 400, "query length 2, node indexes L=32"},
		{"long query", frame(cluster.Request{Kind: cluster.KindSearch, Eps: 0.4, Query: append(q, 0)}), 400, "query length 33, node indexes L=32"},
		{"empty query", frame(cluster.Request{Kind: cluster.KindSearch, Eps: 0.4}), 400, "query length 0, node indexes L=32"},
		{"NaN value", frame(cluster.Request{Kind: cluster.KindSearch, Eps: 0.4, Query: withValue(3, math.NaN())}), 400, "non-finite query value NaN at position 3"},
		{"Inf value", frame(cluster.Request{Kind: cluster.KindSearch, Eps: 0.4, Query: withValue(1, math.Inf(-1))[:4]}), 400, "non-finite query value -Inf at position 1"},
		{"negative eps", frame(cluster.Request{Kind: cluster.KindSearch, Eps: -1, Query: q}), 400, "invalid threshold -1"},
		{"NaN eps", frame(cluster.Request{Kind: cluster.KindSearch, Eps: math.NaN(), Query: q}), 400, "invalid threshold NaN"},
		{"NaN bound", frame(cluster.Request{Kind: cluster.KindTopK, K: 3, Bound: math.NaN(), Query: q}), 400, "invalid bound NaN"},
		{"negative bound", frame(cluster.Request{Kind: cluster.KindTopK, K: 3, Bound: -0.5, Query: q}), 400, "invalid bound -0.5"},

		// Not a request frame of this version.
		{"JSON in a frame", jsonBody, 400, bad + "version 123, this build speaks 4"},
		{"empty", nil, 400, bad + "truncated"},
		{"v3 frame", append([]byte{3}, search[1:]...), 400, bad + "version 3, this build speaks 4"},
		{"next version", append([]byte{cluster.FrameVersion + 1}, search[1:]...), 400, bad + "version 5, this build speaks 4"},
		{"kind 3 (the retired prefix kind)", append([]byte{cluster.FrameVersion, 3}, search[2:]...), 400, bad + "kind 3"},
		{"unknown kind", append([]byte{cluster.FrameVersion, 9}, search[2:]...), 400, bad + "kind 9"},
		{"kind 0", append([]byte{cluster.FrameVersion, 0}, search[2:]...), 400, bad + "kind 0"},
		{"unknown flags", append([]byte{cluster.FrameVersion, 1, 2}, search[3:]...), 400, bad + "flag byte 2"},
		{"truncated header", search[:20], 400, bad + "truncated"},
		{"truncated query", search[:len(search)-1], 400, bad + "count 32 of 8-byte elements in 255 bytes"},
		{"trailing bytes", append(append([]byte(nil), search...), 0, 0), 400, bad + "2 trailing bytes"},
		{"huge count", huge, 400, bad + "count 4294967295 of 8-byte elements in 0 bytes"},
	} {
		status, body, err := st.Exchange(ctx, raw(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.status == 200 {
			if _, err := cluster.ParseAnswer(body); status != 200 || err != nil {
				t.Errorf("%s: status %d, %v: %.200q", tc.name, status, err, body)
			}
			continue
		}
		want, _ := json.Marshal(map[string]string{"error": tc.text})
		if status != tc.status || string(body) != string(want) {
			t.Errorf("%s: %d %s, want %d %s", tc.name, status, body, tc.status, want)
		}
	}

	// Off the stream: no per-query route, and no stream without the
	// Upgrade.
	resp, err := http.Post(srv.URL+"/shard/search", "application/x-twinsearch-frame", bytes.NewReader(search))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /shard/search: %s, want 404", resp.Status)
	}
	resp, err = http.Get(srv.URL + cluster.StreamPath)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := "{\"error\":\"the shard RPC is a stream: GET /shard/stream with Upgrade: twinsearch-shard\"}\n"; resp.StatusCode != http.StatusUpgradeRequired || string(body) != want {
		t.Errorf("GET %s without Upgrade: %s %s", cluster.StreamPath, resp.Status, body)
	}

	// A declared length past the body limit is refused before a byte of
	// it is read, and the stream closes.
	conn, br := rawStream(t, srv.URL)
	binary.Write(conn, binary.LittleEndian, uint32(64<<20+1))
	got, _ := io.ReadAll(br)
	if want := envelope(413, []byte(`{"error":"bad request body: http: request body too large"}`)); !bytes.Equal(got, want) {
		t.Errorf("declared 64 MiB + 1: %q, want %q and the stream's end", got, want)
	}
}

// TestHostileNodeFailsOver: a replica answering with a frame that
// claims a huge count, stops short or runs on, or with an envelope of
// an unknown status or a declared length past the limit makes its
// attempt fail over — the query answers exactly, from the sibling — and
// is marked down with the decoder's words. Never a panic, never a short
// answer.
func TestHostileNodeFailsOver(t *testing.T) {
	ext := series.NewExtractor(datasets.EEGN(87, 1200), series.NormGlobal)
	local, path := buildSaved(t, ext, 4)
	var mode atomic.Value
	mode.Store("")
	cl, _ := startClusterB(t, ext, path, [][]int{{0, 1, 2, 3}}, 2, cluster.Options{RefreshInterval: -1},
		hookNode(0, func(ctx context.Context, q *cluster.Request, answer func() []byte) []byte {
			env := answer()
			b := env[8:]
			switch mode.Load().(string) {
			case "huge count":
				return envelope(200, []byte{cluster.FrameVersion, 0xff, 0xff, 0xff, 0xff})
			case "truncated":
				return envelope(200, b[:len(b)-1])
			case "trailing bytes":
				return envelope(200, append(b, 0))
			case "unknown status":
				return envelope(299, b)
			case "declared past the limit":
				return binary.LittleEndian.AppendUint32(envelope(200, nil)[:4], 64<<20+1)
			}
			return env
		}))
	ctx := context.Background()
	q := ext.ExtractCopy(500, testL)
	want, _ := local.SearchStats(q, 0.3)
	for _, c := range []struct{ mode, words string }{
		{"huge count", "shard search: answer: malformed shard frame: count 4294967295"},
		{"truncated", "shard search: answer: malformed shard frame: "},
		{"trailing bytes", "shard search: answer: malformed shard frame: 1 trailing bytes"},
		{"unknown status", "shard search: malformed envelope: status 299"},
		{"declared past the limit", "shard search: malformed envelope: length 67108865 past the 67108864-byte limit"},
	} {
		mode.Store(c.mode)
		got, err := cl.Search(ctx, q, 0.3)
		if err != nil || !sameMatches(want, got) {
			t.Fatalf("%s: %d matches, %v; want %d", c.mode, len(got), err, len(want))
		}
		if p := cl.Health()[0]; p.Alive || !strings.HasPrefix(p.Error, c.words) {
			t.Fatalf("%s: hostile node %+v, want down with %q", c.mode, p, c.words)
		}
		cl.Sweep(ctx) // its /healthz is honest: up again, and primary
		if !cl.Health()[0].Alive {
			t.Fatalf("%s: sweep left the node down", c.mode)
		}
	}
}

// TestFrameVersionSkew: a node reporting another frame version — a
// newer build, an older one, or one from before the frame, which
// reports none — is refused at open, and refused at rejoin by the sweep
// while its sibling answers.
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

	for _, v := range []int64{0, cluster.FrameVersion - 1, cluster.FrameVersion + 1} {
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

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"twinsearch"
	"twinsearch/internal/cluster"
	"twinsearch/internal/core"
	"twinsearch/internal/datasets"
	"twinsearch/internal/series"
	"twinsearch/internal/shard"
)

// newNodeServer saves a 4-shard index and serves shards 0-1 from a
// node, returning the server URL, the node, and the extractor.
func newNodeServer(t *testing.T) (string, *cluster.Node, *series.Extractor) {
	t.Helper()
	data := datasets.RandomWalk(91, 2000)
	ext := series.NewExtractor(data, series.NormGlobal)
	ix, err := shard.Build(ext, shard.Config{Config: core.Config{L: 50}, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.tsidx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	topo := &cluster.Topology{Index: path, Nodes: []cluster.NodeSpec{
		{Name: "n0", Addr: "http://unused", Shards: []int{0, 1}},
	}}
	n, err := cluster.OpenNode(topo, "n0", ext, cluster.NodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	nodeHandlers[t.Name()] = cluster.NewNodeRPC(n)
	srv := httptest.NewServer(nodeHandlers[t.Name()])
	t.Cleanup(srv.Close)
	return srv.URL, n, ext
}

// nodeHandlers hands each test its handler so drain can be triggered.
var nodeHandlers = map[string]*cluster.NodeRPC{}

func TestNodeHealth(t *testing.T) {
	url, n, _ := newNodeServer(t)
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h cluster.NodeHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Role != "node" || h.Name != "n0" || h.TotalShards != 4 {
		t.Fatalf("health = %+v", h)
	}
	if len(h.Shards) != 2 || h.Shards[0] != 0 || h.Shards[1] != 1 {
		t.Fatalf("shard_ids = %v", h.Shards)
	}
	if h.Windows != n.Sub.Windows() || h.L != 50 {
		t.Fatalf("windows/l = %d/%d", h.Windows, h.L)
	}
}

// exchange sends one shard RPC request frame to the node at url over a
// fresh stream and returns the answer envelope's status and body.
func exchange(t *testing.T, url string, frame []byte) (int, []byte) {
	t.Helper()
	ctx := context.Background()
	st, err := cluster.DialStream(ctx, http.DefaultClient, url)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	status, body, err := st.Exchange(ctx, func(b []byte) []byte { return append(b, frame...) })
	if err != nil {
		t.Fatal(err)
	}
	return status, bytes.Clone(body)
}

// TestNodeShardEndpoints round-trips every RPC against the subset's
// in-process answers — the wire encoding must be lossless.
func TestNodeShardEndpoints(t *testing.T) {
	url, n, ext := newNodeServer(t)
	ctx := context.Background()
	q := ext.ExtractCopy(700, 50)

	post := func(req cluster.Request) cluster.Answer {
		t.Helper()
		status, body := exchange(t, url, req.AppendFrame(nil))
		if status != http.StatusOK {
			t.Fatalf("%s: status %d", req.Kind, status)
		}
		out, err := cluster.ParseAnswer(body)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	want, wantSt, err := n.Sub.SearchStatsCtx(ctx, q, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	got := post(cluster.Request{Kind: cluster.KindSearch, Query: q, Eps: 0.4})
	if len(got.Matches) != len(want) || got.Stats == nil || *got.Stats != wantSt {
		t.Fatalf("search: %d matches, stats %+v; want %d, %+v", len(got.Matches), got.Stats, len(want), wantSt)
	}
	for i, m := range want {
		if got.Matches[i].Start != m.Start {
			t.Fatalf("search match %d = %+v, want %+v", i, got.Matches[i], m)
		}
	}

	wantK, err := n.Sub.SearchTopKCtx(ctx, q, 5, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	gotK := post(cluster.Request{Kind: cluster.KindTopK, Query: q, K: 5, Bound: math.Inf(1)})
	if len(gotK.Matches) != len(wantK) {
		t.Fatalf("topk: %d matches, want %d", len(gotK.Matches), len(wantK))
	}
	for i, m := range wantK {
		if gotK.Matches[i].Start != m.Start || gotK.Matches[i].Dist != m.Dist {
			t.Fatalf("topk match %d = %+v, want %+v", i, gotK.Matches[i], m)
		}
	}

	// A seeded bound must only prune, never add.
	bound := wantK[len(wantK)-1].Dist
	gotB := post(cluster.Request{Kind: cluster.KindTopK, Query: q, K: 5, Bound: bound})
	if len(gotB.Matches) != len(wantK) {
		t.Fatalf("bounded topk: %d matches, want %d", len(gotB.Matches), len(wantK))
	}

	wantP, err := n.Sub.SearchPrefixTreeCtx(ctx, q[:25], 0.3)
	if err != nil {
		t.Fatal(err)
	}
	gotP := post(cluster.Request{Kind: cluster.KindPrefix, Query: q[:25], Eps: 0.3})
	if len(gotP.Matches) != len(wantP) {
		t.Fatalf("prefix: %d matches, want %d", len(gotP.Matches), len(wantP))
	}
}

func TestNodeShardEndpointErrors(t *testing.T) {
	url, _, _ := newNodeServer(t)
	// No per-query route: the shard RPC is the stream.
	resp, err := http.Post(url+"/shard/search", "application/x-twinsearch-frame", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /shard/search: %d", resp.StatusCode)
	}
	// Wrong method, or no Upgrade.
	resp, err = http.Get(url + cluster.StreamPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUpgradeRequired {
		t.Fatalf("GET %s without Upgrade: %d", cluster.StreamPath, resp.StatusCode)
	}
	// Malformed body.
	if status, _ := exchange(t, url, []byte("{nope")); status != http.StatusBadRequest {
		t.Fatalf("malformed body: %d", status)
	}
	// Wrong query length.
	if status, _ := exchange(t, url, (&cluster.Request{Kind: cluster.KindSearch, Query: []float64{1, 2}, Eps: 0.3}).AppendFrame(nil)); status != http.StatusBadRequest {
		t.Fatalf("short query: %d", status)
	}
}

// TestDrain checks both handler kinds: once draining, queries get 503
// while /healthz stays up and reports it.
func TestDrain(t *testing.T) {
	// Standalone engine handler.
	ts := datasets.EEGN(81, 3000)
	eng, err := twinsearch.Open(ts, twinsearch.Options{L: 100})
	if err != nil {
		t.Fatal(err)
	}
	h := New(eng)
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	var health map[string]interface{}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["role"] != "standalone" || health["status"] != "ok" {
		t.Fatalf("pre-drain healthz = %v", health)
	}

	h.BeginDrain()
	raw, _ := json.Marshal(map[string]interface{}{"query": ts[0:100], "eps": 0.3})
	resp, err = http.Post(srv.URL+"/search", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining search: %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health["status"] != "draining" {
		t.Fatalf("draining healthz = %d %v", resp.StatusCode, health["status"])
	}

	// Node handler: same contract for the shard RPC. A stream idle at
	// the drain is closed, and a new one is refused 503.
	url, _, ext := newNodeServer(t)
	ctx := context.Background()
	idle, err := cluster.DialStream(ctx, http.DefaultClient, url)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	nodeHandlers[t.Name()].BeginDrain()
	frame := (&cluster.Request{Kind: cluster.KindSearch, Query: ext.ExtractCopy(0, 50), Eps: 0.3}).AppendFrame(nil)
	if _, _, err := idle.Exchange(ctx, func(b []byte) []byte { return append(b, frame...) }); err == nil {
		t.Fatal("a stream idle at the drain still answers")
	}
	resp, err = http.Get(url + cluster.StreamPath)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining %s: %d, want 503", cluster.StreamPath, resp.StatusCode)
	}
	var nh cluster.NodeHealth
	nresp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(nresp.Body).Decode(&nh); err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusOK || nh.Status != "draining" {
		t.Fatalf("draining node healthz = %d %q", nresp.StatusCode, nh.Status)
	}
}

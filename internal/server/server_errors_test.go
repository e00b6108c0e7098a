package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"twinsearch"
	"twinsearch/internal/cluster"
	"twinsearch/internal/datasets"
	"twinsearch/internal/series"
)

func TestTopKEndpointErrors(t *testing.T) {
	srv, _ := newTestServer(t)
	// Wrong method.
	resp, err := http.Get(srv.URL + "/topk")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /topk: status %d", resp.StatusCode)
	}
	// Malformed body.
	mal, err := http.Post(srv.URL+"/topk", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	mal.Body.Close()
	if mal.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed /topk: status %d", mal.StatusCode)
	}
	// Bad query length.
	bad, _ := postJSON(t, srv.URL+"/topk", map[string]interface{}{"query": []float64{1}, "k": 2})
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("short query /topk: status %d", bad.StatusCode)
	}
}

func TestAppendEndpointErrors(t *testing.T) {
	srv, ts := newTestServer(t)
	resp, err := http.Get(srv.URL + "/append")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /append: status %d", resp.StatusCode)
	}
	mal, err := http.Post(srv.URL+"/append", "application/json", bytes.NewReader([]byte("nope")))
	if err != nil {
		t.Fatal(err)
	}
	mal.Body.Close()
	if mal.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed /append: status %d", mal.StatusCode)
	}
	// A value no float64 holds finitely is refused with the rest of its
	// call: the next append starts from the original length and epoch.
	inf, err := http.Post(srv.URL+"/append", "application/json", bytes.NewReader([]byte(`{"values":[0.5,1e999,0.25]}`)))
	if err != nil {
		t.Fatal(err)
	}
	inf.Body.Close()
	if inf.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-finite /append: status %d", inf.StatusCode)
	}
	ok, raw := postJSON(t, srv.URL+"/append", map[string]interface{}{"values": []float64{0.5}})
	var body map[string]int
	if err := json.Unmarshal(raw, &body); err != nil || ok.StatusCode != http.StatusOK {
		t.Fatalf("append after the refusal: status %d, %s (%v)", ok.StatusCode, raw, err)
	}
	if body["series_len"] != len(ts)+1 || body["epoch"] != 1 {
		t.Fatalf("refused append left its mark: %v, want series_len %d, epoch 1", body, len(ts)+1)
	}
}

// TestSubsequenceOutOfRange: every start outside [0, windows) answers
// 400. A start near MaxInt once wrapped the end-of-window sum negative,
// passed the range check and panicked the handler.
func TestSubsequenceOutOfRange(t *testing.T) {
	srv, ts := newTestServer(t)
	last := len(ts) - 100 // the test server's L
	for _, row := range []struct {
		start string
		want  int
	}{
		{strconv.Itoa(last), http.StatusOK},
		{strconv.Itoa(last + 1), http.StatusBadRequest},
		{"999999", http.StatusBadRequest},
		{"-1", http.StatusBadRequest},
		{"9223372036854775797", http.StatusBadRequest},
		{"9223372036854775807", http.StatusBadRequest},
	} {
		resp, err := http.Get(srv.URL + "/subsequence?start=" + row.start)
		if err != nil {
			t.Fatalf("start=%s: %v", row.start, err)
		}
		resp.Body.Close()
		if resp.StatusCode != row.want {
			t.Errorf("start=%s: status %d, want %d", row.start, resp.StatusCode, row.want)
		}
	}
}

// TestAppendRejectedForReadOnlyEngine: a coordinator serves an index
// other processes own, so its engine refuses Append; /append must
// surface that refusal as a 400, not apply or drop it silently.
func TestAppendRejectedForReadOnlyEngine(t *testing.T) {
	ts := datasets.RandomWalk(82, 2000)
	built, err := twinsearch.Open(ts, twinsearch.Options{L: 100, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	idx := filepath.Join(dir, "idx.tssh")
	if err := built.SaveIndexFile(idx); err != nil {
		t.Fatal(err)
	}
	// One loopback shard node serves both shards.
	node, err := cluster.OpenNode(&cluster.Topology{Index: idx, Nodes: []cluster.NodeSpec{{Name: "n0", Shards: cluster.ShardList{0, 1}}}},
		"n0", series.NewExtractor(ts, series.NormGlobal), cluster.NodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rpc := cluster.NewNodeRPC(node)
	nsrv := httptest.NewServer(rpc)
	t.Cleanup(func() {
		// httptest waits for no stream's query: drain before unmapping.
		nsrv.Close()
		rpc.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := rpc.Drained(ctx); err != nil {
			t.Errorf("node: %v; left mapped", err)
			return
		}
		node.Close()
	})
	topo := filepath.Join(dir, "topo.json")
	doc := `{"index": "idx.tssh", "nodes": [{"name": "n0", "addr": "` + nsrv.URL + `", "shards": "0-1"}]}`
	if err := os.WriteFile(topo, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	eng, err := twinsearch.Open(ts, twinsearch.Options{L: 100, Topology: topo})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv := httptest.NewServer(New(eng))
	t.Cleanup(srv.Close)
	resp, _ := postJSON(t, srv.URL+"/append", map[string]interface{}{"values": []float64{1}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("append on a coordinator: status %d", resp.StatusCode)
	}
}

package cluster_test

// Differential proof of the distributed tier: a coordinator fanning out
// over in-process HTTP nodes (real wire format, real handlers, loopback
// transport) must answer every search path byte-identically to the
// local sharded engine over the same saved index — across norm modes,
// node counts, interleaved shard sets, and mixed local/remote topologies —
// and a dead or hung node must fail queries cleanly instead of hanging.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"twinsearch/internal/cluster"
	"twinsearch/internal/core"
	"twinsearch/internal/datasets"
	"twinsearch/internal/series"
	"twinsearch/internal/server"
	"twinsearch/internal/shard"
)

const testL = 32

// buildSaved builds a sharded index over ext and saves it, returning
// the local reference index and the file path.
func buildSaved(t testing.TB, ext *series.Extractor, shards int) (*shard.Index, string) {
	t.Helper()
	ix, err := shard.Build(ext, shard.Config{Config: core.Config{L: testL}, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.tsidx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return ix, path
}

// contiguousSplit assigns total shards to n nodes in contiguous runs.
func contiguousSplit(total, n int) [][]int {
	out := make([][]int, n)
	for i := 0; i < n; i++ {
		for s := i * total / n; s < (i+1)*total/n; s++ {
			out[i] = append(out[i], s)
		}
	}
	return out
}

// startCluster opens one node per shard run, serves each over httptest,
// and returns a coordinator dialed at the real URLs plus the servers
// (so failure tests can kill one). wrap, when non-nil, decorates each
// node's handler (failure-injection hook).
func startCluster(t *testing.T, ext *series.Extractor, path string, runs [][]int, o cluster.Options, wrap func(i int, h http.Handler) http.Handler) (*cluster.Coordinator, []*httptest.Server) {
	t.Helper()
	topo := &cluster.Topology{Index: path}
	for i, run := range runs {
		topo.Nodes = append(topo.Nodes, cluster.NodeSpec{
			Name: fmt.Sprintf("n%d", i), Addr: "placeholder", Shards: run,
		})
	}
	var srvs []*httptest.Server
	for i := range topo.Nodes {
		n, err := cluster.OpenNode(topo, topo.Nodes[i].Name, ext, cluster.NodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		var h http.Handler = server.NewNode(n)
		if wrap != nil {
			h = wrap(i, h)
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		topo.Nodes[i].Addr = srv.URL
		srvs = append(srvs, srv)
	}
	cl, err := cluster.OpenCoordinator(context.Background(), topo, ext, testL, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, srvs
}

func sameMatches(a, b []series.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestClusterDifferential is the acceptance matrix: all five search
// paths × norm modes × node counts, coordinator vs local engine.
func TestClusterDifferential(t *testing.T) {
	data := datasets.EEGN(41, 2400)
	ctx := context.Background()
	for _, mode := range []series.NormMode{series.NormNone, series.NormGlobal, series.NormPerSubsequence} {
		ext := series.NewExtractor(data, mode)
		local, path := buildSaved(t, ext, 4)
		for _, nodes := range []int{1, 2, 3} {
			t.Run(fmt.Sprintf("norm=%v/nodes=%d", mode, nodes), func(t *testing.T) {
				cl, _ := startCluster(t, ext, path, contiguousSplit(4, nodes), cluster.Options{}, nil)
				if cl.TotalShards() != 4 {
					t.Fatalf("TotalShards = %d", cl.TotalShards())
				}
				for _, qp := range []int{50, 777, 2300} {
					q := ext.ExtractCopy(qp, testL)
					for _, eps := range []float64{0.05, 0.4} {
						// Search + Stats.
						wantM, wantSt := local.SearchStats(q, eps)
						gotM, gotSt, err := cl.SearchStats(ctx, q, eps)
						if err != nil {
							t.Fatal(err)
						}
						if !sameMatches(wantM, gotM) {
							t.Fatalf("q=%d eps=%g: search diverged (%d vs %d results)", qp, eps, len(gotM), len(wantM))
						}
						if !reflect.DeepEqual(wantSt, gotSt) {
							t.Fatalf("q=%d eps=%g: stats diverged: %+v vs %+v", qp, eps, gotSt, wantSt)
						}
					}
					// Top-k, including k beyond one node's windows.
					for _, k := range []int{1, 5, 17} {
						want := local.SearchTopK(q, k)
						got, err := cl.SearchTopK(ctx, q, k)
						if err != nil {
							t.Fatal(err)
						}
						if !sameMatches(want, got) {
							t.Fatalf("q=%d k=%d: topk diverged:\n%v\nvs\n%v", qp, k, got, want)
						}
					}
					// Prefix (unsupported under per-subsequence norm: both
					// sides must refuse identically).
					short := q[:testL/2]
					wantP, wantErr := local.SearchPrefix(short, 0.3)
					gotP, gotErr := cl.SearchPrefix(ctx, short, 0.3)
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("q=%d prefix: error mismatch: %v vs %v", qp, gotErr, wantErr)
					}
					if wantErr == nil && !sameMatches(wantP, gotP) {
						t.Fatalf("q=%d prefix: diverged (%d vs %d results)", qp, len(gotP), len(wantP))
					}
				}
			})
		}
	}
}

// TestClusterDifferentialInterleavedShards repeats the core paths over
// nodes that own interleaved shard sets, where node result lists
// interleave in position space and the k-way merge does real work.
func TestClusterDifferentialInterleavedShards(t *testing.T) {
	data := datasets.RandomWalk(43, 2000)
	ext := series.NewExtractor(data, series.NormGlobal)
	local, path := buildSaved(t, ext, 4)
	cl, _ := startCluster(t, ext, path, [][]int{{0, 2}, {1, 3}}, cluster.Options{}, nil)
	ctx := context.Background()
	for _, qp := range []int{100, 950, 1900} {
		q := ext.ExtractCopy(qp, testL)
		wantM, wantSt := local.SearchStats(q, 0.4)
		gotM, gotSt, err := cl.SearchStats(ctx, q, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		if !sameMatches(wantM, gotM) {
			t.Fatalf("q=%d: search diverged", qp)
		}
		if !reflect.DeepEqual(wantSt, gotSt) {
			t.Fatalf("q=%d: stats diverged: %+v vs %+v", qp, gotSt, wantSt)
		}
		if want, got := local.SearchTopK(q, 9), mustTopK(t, cl, ctx, q, 9); !sameMatches(want, got) {
			t.Fatalf("q=%d: topk diverged", qp)
		}
	}
}

func mustTopK(t *testing.T, cl *cluster.Coordinator, ctx context.Context, q []float64, k int) []series.Match {
	t.Helper()
	ms, err := cl.SearchTopK(ctx, q, k)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// TestClusterMixedLocalRemote proves local and remote backends compose:
// one topology entry served in the coordinator's process, one dialed.
func TestClusterMixedLocalRemote(t *testing.T) {
	data := datasets.EEGN(47, 1600)
	ext := series.NewExtractor(data, series.NormGlobal)
	local, path := buildSaved(t, ext, 4)

	topo := &cluster.Topology{Index: path, Nodes: []cluster.NodeSpec{
		{Name: "self", Addr: cluster.LocalAddr, Shards: []int{0, 1}},
		{Name: "peer", Addr: "placeholder", Shards: []int{2, 3}},
	}}
	peer, err := cluster.OpenNode(topo, "peer", ext, cluster.NodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	srv := httptest.NewServer(server.NewNode(peer))
	t.Cleanup(srv.Close)
	topo.Nodes[1].Addr = srv.URL

	cl, err := cluster.OpenCoordinator(context.Background(), topo, ext, testL, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	ctx := context.Background()
	q := ext.ExtractCopy(321, testL)
	want, _ := local.SearchStats(q, 0.4)
	got, err := cl.Search(ctx, q, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMatches(want, got) {
		t.Fatal("mixed local/remote topology diverged")
	}
	if kWant, kGot := local.SearchTopK(q, 6), mustTopK(t, cl, ctx, q, 6); !sameMatches(kWant, kGot) {
		t.Fatal("mixed topology topk diverged")
	}

	// The health view must mark both peers alive and carry assignments.
	// Health reads the cached membership view; Sweep refreshes it now.
	cl.Sweep(ctx)
	peers := cl.Health()
	if len(peers) != 2 || !peers[0].Alive || !peers[1].Alive {
		t.Fatalf("health = %+v", peers)
	}
	if len(peers[0].Shards) != 2 || peers[0].Shards[0] != 0 {
		t.Fatalf("peer 0 shards = %v", peers[0].Shards)
	}
}

// TestClusterNodeFailure kills one node and requires a clean, prompt
// error naming it — the no-partial-answers, no-hangs contract. It also
// checks the health view reports the dead peer.
func TestClusterNodeFailure(t *testing.T) {
	data := datasets.EEGN(51, 1200)
	ext := series.NewExtractor(data, series.NormGlobal)
	_, path := buildSaved(t, ext, 4)
	cl, srvs := startCluster(t, ext, path, contiguousSplit(4, 2), cluster.Options{Timeout: 2 * time.Second}, nil)

	ctx := context.Background()
	q := ext.ExtractCopy(100, testL)
	if _, err := cl.Search(ctx, q, 0.3); err != nil {
		t.Fatalf("pre-failure query: %v", err)
	}

	// Kill node n1's listener: the coordinator must fail fast
	// (connection refused) with the node's name in the error.
	srvs[1].CloseClientConnections()
	srvs[1].Close()

	start := time.Now()
	_, err := cl.Search(ctx, q, 0.3)
	if err == nil {
		t.Fatal("query over a dead node succeeded")
	}
	if !strings.Contains(err.Error(), "n1") {
		t.Fatalf("error does not name the dead node: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("dead-node query took %v", elapsed)
	}
	if _, err := cl.SearchTopK(ctx, q, 5); err == nil {
		t.Fatal("topk over a dead node succeeded")
	}

	cl.Sweep(ctx)
	peers := cl.Health()
	if peers[0].Name != "n0" || !peers[0].Alive {
		t.Fatalf("living peer reported dead: %+v", peers[0])
	}
	if peers[1].Name != "n1" || peers[1].Alive || peers[1].Error == "" {
		t.Fatalf("dead peer not reported: %+v", peers[1])
	}
}

// TestClusterSlowNodeTimeout wedges one node mid-request and requires
// the per-node timeout to fail the query instead of hanging.
func TestClusterSlowNodeTimeout(t *testing.T) {
	data := datasets.EEGN(53, 1200)
	ext := series.NewExtractor(data, series.NormGlobal)
	_, path := buildSaved(t, ext, 4)

	var wedged atomic.Bool
	cl, _ := startCluster(t, ext, path, contiguousSplit(4, 2),
		cluster.Options{Timeout: 300 * time.Millisecond},
		func(i int, h http.Handler) http.Handler {
			if i != 1 {
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if wedged.Load() && strings.HasPrefix(r.URL.Path, "/shard/") {
					// Hold the request far beyond the coordinator's
					// timeout; its context must abort the wait. Drain
					// the body first — net/http only detects a client
					// abort (and cancels r.Context()) once the request
					// has been consumed.
					io.Copy(io.Discard, r.Body)
					select {
					case <-r.Context().Done():
					case <-time.After(5 * time.Second):
					}
					return
				}
				h.ServeHTTP(w, r)
			})
		})

	ctx := context.Background()
	q := ext.ExtractCopy(64, testL)
	if _, err := cl.Search(ctx, q, 0.3); err != nil {
		t.Fatalf("pre-wedge query: %v", err)
	}
	wedged.Store(true)
	start := time.Now()
	_, err := cl.Search(ctx, q, 0.3)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("query over a wedged node succeeded")
	}
	if !strings.Contains(err.Error(), "n1") {
		t.Fatalf("error does not name the wedged node: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("wedged-node query took %v (timeout not enforced)", elapsed)
	}
}

// TestCoordinatorRejectsBadTopologies sweeps open-time validation:
// incomplete coverage, overlapping claims, and an unreachable node all
// fail loudly at OpenCoordinator, not at first query.
func TestCoordinatorRejectsBadTopologies(t *testing.T) {
	data := datasets.EEGN(59, 1200)
	ext := series.NewExtractor(data, series.NormGlobal)
	_, path := buildSaved(t, ext, 4)

	open := func(nodes ...cluster.NodeSpec) error {
		topo := &cluster.Topology{Index: path, Nodes: nodes}
		cl, err := cluster.OpenCoordinator(context.Background(), topo, ext, testL, cluster.Options{Timeout: time.Second})
		if err == nil {
			cl.Close()
		}
		return err
	}

	if err := open(cluster.NodeSpec{Name: "a", Addr: cluster.LocalAddr, Shards: []int{0, 1, 2}}); err == nil {
		t.Error("incomplete coverage accepted")
	}
	if err := open(cluster.NodeSpec{Name: "a", Addr: cluster.LocalAddr, Shards: []int{0, 1, 2, 3, 4}}); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if err := open(cluster.NodeSpec{Name: "a", Addr: "http://127.0.0.1:1", Shards: []int{0, 1, 2, 3}}); err == nil {
		t.Error("unreachable node accepted at open")
	}
	// Wrong L: the local subset opens fine but coverage of windows
	// cannot match a different indexed length.
	topo := &cluster.Topology{Index: path, Nodes: []cluster.NodeSpec{
		{Name: "a", Addr: cluster.LocalAddr, Shards: []int{0, 1, 2, 3}}}}
	if cl, err := cluster.OpenCoordinator(context.Background(), topo, ext, testL+8, cluster.Options{}); err == nil {
		cl.Close()
		t.Error("mismatched L accepted")
	}
}

// Regression for a ctxflow finding: dialRemote re-rooted its health
// probe on context.Background(), so a caller's deadline or cancellation
// could not abort a wedged dial — OpenCoordinator sat out the full
// per-node Timeout. With the context threaded through, a short caller
// deadline must win over a large per-node timeout.
func TestOpenCoordinatorHonorsContext(t *testing.T) {
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // wedge until the client abandons the request
	}))
	defer hang.Close()
	topo := &cluster.Topology{Nodes: []cluster.NodeSpec{
		{Name: "n0", Addr: hang.URL, Shards: []int{0}}}}
	ext := series.NewExtractor(datasets.RandomWalk(59, 400), series.NormGlobal)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	cl, err := cluster.OpenCoordinator(ctx, topo, ext, testL, cluster.Options{Timeout: time.Minute})
	if err == nil {
		cl.Close()
		t.Fatal("open against a wedged node succeeded")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("open took %v despite a 100ms caller deadline", elapsed)
	}
}

package cluster_test

// Differential proof of the distributed tier: a coordinator fanning out
// over in-process HTTP nodes (real wire format, real handlers, loopback
// transport) must answer every search path byte-identically to the
// local sharded engine over the same saved index — across norm modes,
// node counts and interleaved shard sets — and a dead or hung node must
// fail queries cleanly instead of hanging.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"twinsearch/internal/cluster"
	"twinsearch/internal/core"
	"twinsearch/internal/datasets"
	"twinsearch/internal/series"
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

// nodeServer serves a node's handler as httptest.Server does, and also
// holds the connections the handler hijacks — the shard RPC's streams,
// which httptest.Server's Close and CloseClientConnections leave open —
// so that Kill takes the whole node down, as its process's death would.
type nodeServer struct {
	*httptest.Server
	mu      sync.Mutex
	streams []net.Conn
}

// serveNode serves n's shard RPC on a nodeServer, through wrap(i, ·)
// when wrap is non-nil. At cleanup the server is killed and the handler
// drained before the node unmaps its arena, as tsserve's shutdown
// does: httptest waits for no stream's query.
func serveNode(t testing.TB, n *cluster.Node, i int, wrap func(i int, h http.Handler) http.Handler) *nodeServer {
	rpc := cluster.NewNodeRPC(n)
	t.Cleanup(func() {
		rpc.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := rpc.Drained(ctx); err != nil {
			t.Errorf("node %s: %v; left mapped", n.Name, err)
			return
		}
		n.Close()
	})
	var h http.Handler = rpc
	if wrap != nil {
		h = wrap(i, h)
	}
	return newNodeServer(t, h)
}

func newNodeServer(t testing.TB, h http.Handler) *nodeServer {
	s := &nodeServer{Server: httptest.NewUnstartedServer(h)}
	s.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateHijacked {
			s.mu.Lock()
			s.streams = append(s.streams, c)
			s.mu.Unlock()
		}
	}
	s.Start()
	t.Cleanup(s.Kill)
	return s
}

// Kill closes the listener and every connection, streams included.
func (s *nodeServer) Kill() {
	s.CloseClientConnections()
	s.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.streams {
		c.Close()
	}
	s.streams = nil
}

// nodeHook is the frame-level seam cluster.SetHook installs.
type nodeHook = func(ctx context.Context, q *cluster.Request, answer func() []byte) []byte

// hookNode returns a wrap for startCluster and startClusterB that
// installs hook on node i's handler and leaves the other nodes alone.
func hookNode(i int, hook nodeHook) func(int, http.Handler) http.Handler {
	return func(j int, h http.Handler) http.Handler {
		if j == i {
			cluster.SetHook(h.(*cluster.NodeRPC), hook)
		}
		return h
	}
}

// startCluster opens one node per shard run, serves each over httptest,
// and returns a coordinator dialed at the real URLs plus the servers
// (so failure tests can kill one). wrap, when non-nil, decorates each
// node's handler (see hookNode for the failure-injection seam).
func startCluster(t *testing.T, ext *series.Extractor, path string, runs [][]int, o cluster.Options, wrap func(i int, h http.Handler) http.Handler) (*cluster.Coordinator, []*nodeServer) {
	t.Helper()
	topo := &cluster.Topology{Index: path}
	for i, run := range runs {
		topo.Nodes = append(topo.Nodes, cluster.NodeSpec{
			Name: fmt.Sprintf("n%d", i), Addr: "placeholder", Shards: run,
		})
	}
	var srvs []*nodeServer
	for i := range topo.Nodes {
		n, err := cluster.OpenNode(topo, topo.Nodes[i].Name, ext, cluster.NodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		srv := serveNode(t, n, i, wrap)
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
					// A shorter query (unsupported under per-subsequence
					// norm: the nodes refuse it; a local index trusts its
					// caller to).
					short := q[:testL/2]
					wantP, wantSt := local.SearchStats(short, 0.3)
					gotP, gotSt, gotErr := cl.SearchStats(ctx, short, 0.3)
					if mode == series.NormPerSubsequence {
						if gotErr == nil {
							t.Fatalf("q=%d prefix: accepted under per-subsequence normalization", qp)
						}
						continue
					}
					if gotErr != nil || !sameMatches(wantP, gotP) || wantSt != gotSt {
						t.Fatalf("q=%d prefix: diverged (%d vs %d results, %+v vs %+v, %v)", qp, len(gotP), len(wantP), gotSt, wantSt, gotErr)
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

// TestSweepRacesHealth runs the membership sweep against the health
// view, as the background sweep and a /healthz hit on the coordinator
// do (run under -race): the view reads only what the open fixed and
// each owner's guarded liveness fact. After a sweep every node is
// alive and lists its topology entry's shards.
func TestSweepRacesHealth(t *testing.T) {
	ext := series.NewExtractor(datasets.EEGN(47, 1600), series.NormGlobal)
	_, path := buildSaved(t, ext, 4)
	cl, _, _ := startReplicated(t, ext, path, [][]int{{0, 1}, {2, 3}}, 2, cluster.Options{})
	ctx := context.Background()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range 20 {
			cl.Sweep(ctx)
		}
	}()
	for range 200 {
		cl.Health()
	}
	<-done

	cl.Sweep(ctx)
	peers := cl.Health()
	if len(peers) != 4 {
		t.Fatalf("health lists %d nodes, want 4: %+v", len(peers), peers)
	}
	for i, p := range peers {
		want := []int{0, 1}
		if i >= 2 {
			want = []int{2, 3}
		}
		if !p.Alive || !reflect.DeepEqual(p.Shards, want) || p.Windows == 0 {
			t.Fatalf("peer %d = %+v, want alive serving shards %v", i, p, want)
		}
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

	// Kill node n1: the coordinator must fail fast (its stream ends,
	// the fresh one is refused) with the node's name in the error.
	srvs[1].Kill()

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
		hookNode(1, func(ctx context.Context, q *cluster.Request, answer func() []byte) []byte {
			if wedged.Load() {
				// Hold the request far beyond the coordinator's
				// timeout; the stream's close must end the wait.
				select {
				case <-ctx.Done():
				case <-time.After(5 * time.Second):
				}
			}
			return answer()
		}))

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

	// Real nodes: a serves shards 0-2, b shard 3, c all four. a answers
	// /healthz 100 ms late, after b's answer.
	_, srvs := startCluster(t, ext, path, [][]int{{0, 1, 2}, {3}}, cluster.Options{}, func(i int, h http.Handler) http.Handler {
		if i != 0 {
			return h
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/healthz" {
				time.Sleep(100 * time.Millisecond)
			}
			h.ServeHTTP(w, r)
		})
	})
	_, whole := startCluster(t, ext, path, [][]int{{0, 1, 2, 3}}, cluster.Options{}, nil)
	a, b, c := srvs[0].URL, srvs[1].URL, whole[0].URL
	open := func(l int, nodes ...cluster.NodeSpec) error {
		topo := &cluster.Topology{Index: path, Nodes: nodes}
		cl, err := cluster.OpenCoordinator(context.Background(), topo, ext, l, cluster.Options{Timeout: time.Second})
		if err == nil {
			cl.Close()
		}
		return err
	}

	if err := open(testL, cluster.NodeSpec{Name: "a", Addr: a, Shards: []int{0, 1, 2}}); err == nil {
		t.Error("incomplete coverage accepted")
	}
	if err := open(testL, cluster.NodeSpec{Name: "a", Addr: a, Shards: []int{0, 1, 2}},
		cluster.NodeSpec{Name: "b", Addr: b, Shards: []int{3, 4}}); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if err := open(testL, cluster.NodeSpec{Name: "a", Addr: "http://127.0.0.1:1", Shards: []int{0, 1, 2, 3}}); err == nil {
		t.Error("unreachable node accepted at open")
	}
	// Wrong L: the node answers, but indexes another length.
	if err := open(testL+8, cluster.NodeSpec{Name: "c", Addr: c, Shards: []int{0, 1, 2, 3}}); err == nil {
		t.Error("mismatched L accepted")
	}
	// Both entries misassigned: the refusal names the first in topology
	// order, though its probe answers last.
	if err := open(testL, cluster.NodeSpec{Name: "a", Addr: a, Shards: []int{3}},
		cluster.NodeSpec{Name: "b", Addr: b, Shards: []int{0, 1, 2}}); err == nil {
		t.Error("misassigned nodes accepted")
	} else if want := `cluster: node "a" serves shards [0 1 2], topology assigns [3]`; err.Error() != want {
		t.Errorf("misassigned nodes: %v, want %q", err, want)
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

package cluster_test

// Fault-injection proofs of the replicated cluster tier: with R = 2,
// killing or wedging any single node mid-query must leave every search
// path's answer byte-identical to the local engine — matches, Dist
// bits, and Stats counters — with zero query errors. The faults are
// injected at the HTTP transport seam (Chaos, which also wraps every
// shard RPC stream it opens), so the coordinator's failover, hedging,
// liveness marking and retry logic all run exactly as in production.

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"twinsearch/internal/cluster"
	"twinsearch/internal/datasets"
	"twinsearch/internal/series"
)

// startReplicated builds an R-way replicated cluster: every shard group
// is served by r independent nodes (each opening its own subset of the
// saved index at path), all dialed through a Chaos transport the test
// can inject faults into. The background sweep is disabled unless the
// options ask for it — tests drive Sweep explicitly for determinism.
func startReplicated(t *testing.T, ext *series.Extractor, path string, groups [][]int, r int, o cluster.Options) (*cluster.Coordinator, []*nodeServer, *Chaos) {
	t.Helper()
	chaos := NewChaos(nil)
	if o.Client == nil {
		o.Client = &http.Client{Transport: chaos}
	}
	if o.RefreshInterval == 0 {
		o.RefreshInterval = -1
	}
	topo := &cluster.Topology{Index: path, Replicas: r}
	for gi, run := range groups {
		for ri := 0; ri < r; ri++ {
			topo.Nodes = append(topo.Nodes, cluster.NodeSpec{
				Name: fmt.Sprintf("g%dr%d", gi, ri), Addr: "placeholder", Shards: run,
			})
		}
	}
	var srvs []*nodeServer
	for i := range topo.Nodes {
		n, err := cluster.OpenNode(topo, topo.Nodes[i].Name, ext, cluster.NodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		srv := serveNode(t, n, i, nil)
		topo.Nodes[i].Addr = srv.URL
		srvs = append(srvs, srv)
	}
	cl, err := cluster.OpenCoordinator(context.Background(), topo, ext, testL, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, srvs, chaos
}

// hostOf extracts the host:port key Chaos rules are addressed by.
func hostOf(t *testing.T, srv *nodeServer) string {
	t.Helper()
	u, err := url.Parse(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}

// TestFailoverDifferential is the replicated acceptance matrix: R = 2,
// each node killed in turn — refused connections AND black-holed
// requests — during each of the five search paths, across all three
// norm modes. Every query must complete with zero errors and answer
// byte-identically to the local engine (matches, Dist, Stats). Hedging
// is on with a small delay so a black-holed first attempt costs
// milliseconds, not a timeout.
func TestFailoverDifferential(t *testing.T) {
	data := datasets.EEGN(61, 1800)
	ctx := context.Background()
	for _, mode := range []series.NormMode{series.NormNone, series.NormGlobal, series.NormPerSubsequence} {
		ext := series.NewExtractor(data, mode)
		local, path := buildSaved(t, ext, 4)
		cl, srvs, chaos := startReplicated(t, ext, path, [][]int{{0, 1}, {2, 3}}, 2, cluster.Options{
			Timeout:    10 * time.Second,
			HedgeDelay: 20 * time.Millisecond,
		})
		if cl.Replicas() != 2 {
			t.Fatalf("Replicas() = %d", cl.Replicas())
		}
		q := ext.ExtractCopy(777, testL)
		for victim := range srvs {
			for _, fault := range []string{"refuse", "blackhole"} {
				t.Run(fmt.Sprintf("norm=%v/victim=%d/%s", mode, victim, fault), func(t *testing.T) {
					host := hostOf(t, srvs[victim])
					chaos.Set(host, ChaosRule{
						Refuse:    fault == "refuse",
						BlackHole: fault == "blackhole",
					})
					defer func() {
						// Heal the victim AND mark it up again so the next
						// subtest's faults are genuinely attempted — a node
						// left down would just be skipped.
						chaos.Clear(host)
						cl.Sweep(ctx)
					}()

					// Path 1+2: range search with stats.
					wantM, wantSt := local.SearchStats(q, 0.3)
					gotM, gotSt, err := cl.SearchStats(ctx, q, 0.3)
					if err != nil {
						t.Fatalf("search with dead node: %v", err)
					}
					if !sameMatches(wantM, gotM) {
						t.Fatalf("search diverged (%d vs %d results)", len(gotM), len(wantM))
					}
					if !reflect.DeepEqual(wantSt, gotSt) {
						t.Fatalf("stats diverged: %+v vs %+v", gotSt, wantSt)
					}
					// Path 3: top-k (two-phase; both phases must survive).
					wantK := local.SearchTopK(q, 7)
					gotK, err := cl.SearchTopK(ctx, q, 7)
					if err != nil {
						t.Fatalf("topk with dead node: %v", err)
					}
					if !sameMatches(wantK, gotK) {
						t.Fatalf("topk diverged:\n%v\nvs\n%v", gotK, wantK)
					}
					// Path 4: a shorter query (the nodes refuse it under
					// per-sub norm).
					short := q[:testL/2]
					wantP, wantSt := local.SearchStats(short, 0.3)
					gotP, gotSt, gotErr := cl.SearchStats(ctx, short, 0.3)
					if (mode == series.NormPerSubsequence) != (gotErr != nil) {
						t.Fatalf("prefix error %v under %v", gotErr, mode)
					}
					if gotErr == nil && (!sameMatches(wantP, gotP) || wantSt != gotSt) {
						t.Fatalf("prefix diverged")
					}
				})
			}
		}
	}
}

// TestFailoverTimeout proves failover works without hedging: a
// black-holed replica burns its per-attempt timeout, then the unit
// retries on the sibling and the query still answers correctly.
func TestFailoverTimeout(t *testing.T) {
	data := datasets.EEGN(67, 1200)
	ext := series.NewExtractor(data, series.NormGlobal)
	local, path := buildSaved(t, ext, 4)
	cl, srvs, chaos := startReplicated(t, ext, path, [][]int{{0, 1}, {2, 3}}, 2, cluster.Options{
		Timeout: 250 * time.Millisecond, // per attempt; failover doubles it at worst
	})
	chaos.Set(hostOf(t, srvs[0]), ChaosRule{BlackHole: true})

	ctx := context.Background()
	q := ext.ExtractCopy(400, testL)
	start := time.Now()
	got, err := cl.Search(ctx, q, 0.3)
	if err != nil {
		t.Fatalf("query with wedged replica: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout failover took %v", elapsed)
	}
	want, _ := local.SearchStats(q, 0.3)
	if !sameMatches(want, got) {
		t.Fatal("timeout failover diverged")
	}
}

// TestHedgeMasksSlowReplica proves the hedge path: one replica delayed
// far beyond the hedge delay must not set the query's latency — the
// hedged sibling answers first and the answer is still exact.
func TestHedgeMasksSlowReplica(t *testing.T) {
	data := datasets.EEGN(71, 1200)
	ext := series.NewExtractor(data, series.NormGlobal)
	local, path := buildSaved(t, ext, 4)
	cl, srvs, chaos := startReplicated(t, ext, path, [][]int{{0, 1}, {2, 3}}, 2, cluster.Options{
		Timeout:    10 * time.Second,
		HedgeDelay: 15 * time.Millisecond,
	})
	chaos.Set(hostOf(t, srvs[0]), ChaosRule{Delay: 3 * time.Second})

	ctx := context.Background()
	q := ext.ExtractCopy(200, testL)
	start := time.Now()
	got, err := cl.Search(ctx, q, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hedge did not mask the slow replica: query took %v", elapsed)
	}
	want, _ := local.SearchStats(q, 0.3)
	if !sameMatches(want, got) {
		t.Fatal("hedged query diverged")
	}
}

// TestTransportRetryAtR1 proves the idempotent retry: even unreplicated
// (R = 1), a stream reset before any answer byte arrives is retried
// once on a fresh stream to the same node, absorbing the transient blip
// a restarting listener or a dropped idle connection causes.
func TestTransportRetryAtR1(t *testing.T) {
	data := datasets.EEGN(73, 1200)
	ext := series.NewExtractor(data, series.NormGlobal)
	local, path := buildSaved(t, ext, 4)
	cl, srvs, chaos := startReplicated(t, ext, path, [][]int{{0, 1}, {2, 3}}, 1, cluster.Options{})

	// Install the blip after open: the first frame to n0 is reset, the
	// one after succeeds.
	host := hostOf(t, srvs[0])
	chaos.Set(host, ChaosRule{FailFirst: 1})

	ctx := context.Background()
	q := ext.ExtractCopy(300, testL)
	got, err := cl.Search(ctx, q, 0.3)
	if err != nil {
		t.Fatalf("query across a transient refusal failed: %v", err)
	}
	want, _ := local.SearchStats(q, 0.3)
	if !sameMatches(want, got) {
		t.Fatal("retried query diverged")
	}
	if f := chaos.Faults(host); f != 1 {
		t.Fatalf("expected exactly 1 injected fault, saw %d", f)
	}
	if h := chaos.Hits(host); h < 2 {
		t.Fatalf("expected a retry after the refusal, saw %d requests", h)
	}
}

// TestDemotionLifecycle walks one node through its liveness fact's
// writers: one refused attempt marks it down (the dead node stops
// absorbing first attempts while its sibling is up), it is still tried
// as the last resort, a successful sweep restores it as primary, and a
// successful last-resort attempt marks it up by itself.
func TestDemotionLifecycle(t *testing.T) {
	data := datasets.EEGN(79, 1200)
	ext := series.NewExtractor(data, series.NormGlobal)
	_, path := buildSaved(t, ext, 4)
	// One replica group of two nodes; g0r0 is first in topology order,
	// so while up it absorbs every first attempt.
	cl, srvs, chaos := startReplicated(t, ext, path, [][]int{{0, 1, 2, 3}}, 2, cluster.Options{})
	ctx := context.Background()
	q := ext.ExtractCopy(500, testL)
	h0, h1 := hostOf(t, srvs[0]), hostOf(t, srvs[1])

	search := func() error {
		_, err := cl.Search(ctx, q, 0.3)
		return err
	}
	peer := func(name string) cluster.PeerStatus {
		t.Helper()
		for _, p := range cl.Health() {
			if p.Name == name {
				return p
			}
		}
		t.Fatalf("no peer %q in health view", name)
		return cluster.PeerStatus{}
	}

	// One refused attempt: the query answers from the sibling and g0r0
	// is down, carrying the attempt's error.
	chaos.Set(h0, ChaosRule{Refuse: true})
	if err := search(); err != nil {
		t.Fatalf("query with g0r0 refused: %v", err)
	}
	if p := peer("g0r0"); p.Alive || !strings.Contains(p.Error, "refused") || p.CheckedAt.IsZero() {
		t.Fatalf("g0r0 after one refused attempt: %+v, want down with the error", p)
	}

	// Down while its sibling is up: g0r0 sees no first attempt.
	quiet := chaos.Hits(h0)
	for i := 0; i < 3; i++ {
		if err := search(); err != nil {
			t.Fatal(err)
		}
	}
	if h := chaos.Hits(h0); h != quiet {
		t.Fatalf("down node still queried: %d → %d requests", quiet, h)
	}

	// Last resort: with the sibling refusing too, g0r0 is still tried
	// before the query fails.
	chaos.Set(h1, ChaosRule{Refuse: true})
	if err := search(); err == nil || !strings.Contains(err.Error(), "g0r0") {
		t.Fatalf("query with both replicas refused: %v, want an error naming g0r0", err)
	}
	if h := chaos.Hits(h0); h == quiet {
		t.Fatal("down node not tried as the last resort")
	}

	// A successful sweep marks both up, and g0r0 is primary again.
	chaos.Clear(h0)
	chaos.Clear(h1)
	cl.Sweep(ctx)
	if p := peer("g0r0"); !p.Alive || p.Error != "" {
		t.Fatalf("g0r0 after a successful sweep: %+v", p)
	}
	a0, a1 := chaos.Hits(h0), chaos.Hits(h1)
	if err := search(); err != nil {
		t.Fatal(err)
	}
	if chaos.Hits(h0) == a0 || chaos.Hits(h1) != a1 {
		t.Fatalf("after the sweep g0r0 %d → %d, g0r1 %d → %d requests; want g0r0 primary",
			a0, chaos.Hits(h0), a1, chaos.Hits(h1))
	}

	// Without a sweep: g0r0 goes down, heals, and the sibling refuses —
	// the last-resort attempt answers and marks g0r0 up by itself.
	chaos.Set(h0, ChaosRule{Refuse: true})
	if err := search(); err != nil || peer("g0r0").Alive {
		t.Fatalf("second demotion: err %v, g0r0 %+v", err, peer("g0r0"))
	}
	chaos.Clear(h0)
	chaos.Set(h1, ChaosRule{Refuse: true})
	if err := search(); err != nil {
		t.Fatalf("last-resort query: %v", err)
	}
	if p := peer("g0r0"); !p.Alive || p.Error != "" {
		t.Fatalf("g0r0 after a successful last-resort attempt: %+v, want up", p)
	}
	if peer("g0r1").Alive {
		t.Fatal("refused g0r1 still up")
	}
}

// TestDegradedOpen: a cluster with R = 2 opens with one node dead (its
// group still has a live owner) and answers correctly; with R = 1 the
// same dead node refuses the open — no replica can cover its shards.
func TestDegradedOpen(t *testing.T) {
	data := datasets.EEGN(83, 1200)
	ext := series.NewExtractor(data, series.NormGlobal)
	local, path := buildSaved(t, ext, 4)

	build := func(r int) (*cluster.Topology, []*nodeServer) {
		t.Helper()
		topo := &cluster.Topology{Index: path, Replicas: r}
		var srvs []*nodeServer
		for gi, run := range [][]int{{0, 1}, {2, 3}} {
			for ri := 0; ri < r; ri++ {
				name := fmt.Sprintf("g%dr%d", gi, ri)
				n, err := cluster.OpenNode(&cluster.Topology{Index: path, Replicas: r,
					Nodes: []cluster.NodeSpec{{Name: name, Addr: "placeholder", Shards: run}}}, name, ext, cluster.NodeOptions{})
				if err != nil {
					t.Fatal(err)
				}
				srv := serveNode(t, n, 0, nil)
				topo.Nodes = append(topo.Nodes, cluster.NodeSpec{Name: name, Addr: srv.URL, Shards: run})
				srvs = append(srvs, srv)
			}
		}
		return topo, srvs
	}

	// R = 2: kill g0r0 before the open. The open degrades, the dead
	// node shows up down with its error, and queries answer.
	topo, srvs := build(2)
	srvs[0].Kill()
	cl, err := cluster.OpenCoordinator(context.Background(), topo, ext, testL, cluster.Options{RefreshInterval: -1})
	if err != nil {
		t.Fatalf("degraded open refused: %v", err)
	}
	defer cl.Close()
	peers := cl.Health()
	if peers[0].Alive || peers[0].Error == "" {
		t.Fatalf("dead node not reported: %+v", peers[0])
	}
	if !peers[1].Alive {
		t.Fatalf("live replica reported dead: %+v", peers[1])
	}
	ctx := context.Background()
	q := ext.ExtractCopy(600, testL)
	want, _ := local.SearchStats(q, 0.3)
	got, err := cl.Search(ctx, q, 0.3)
	if err != nil {
		t.Fatalf("query on degraded cluster: %v", err)
	}
	if !sameMatches(want, got) {
		t.Fatal("degraded cluster diverged")
	}

	// R = 1: the same kill leaves shards 0-1 unowned; the open refuses.
	topo1, srvs1 := build(1)
	srvs1[0].Kill()
	if _, err := cluster.OpenCoordinator(context.Background(), topo1, ext, testL, cluster.Options{RefreshInterval: -1}); err == nil {
		t.Fatal("open with an uncovered shard group succeeded")
	} else if !strings.Contains(err.Error(), "no reachable replica") {
		t.Fatalf("unexpected open error: %v", err)
	}
}

// TestGiveUpEndsNodeQuery: a coordinator that gives up on an attempt —
// its timeout passes, or its hedge loses — closes the attempt's stream,
// and the node's in-flight query context ends with it, not when the
// node's query would have. The unit still answers exactly, from the
// sibling.
func TestGiveUpEndsNodeQuery(t *testing.T) {
	ext := series.NewExtractor(datasets.EEGN(97, 1200), series.NormGlobal)
	local, path := buildSaved(t, ext, 4)
	q := ext.ExtractCopy(450, testL)
	want, _ := local.SearchStats(q, 0.3)
	for _, c := range []struct {
		name string
		o    cluster.Options
	}{
		{"timeout", cluster.Options{Timeout: 100 * time.Millisecond, RefreshInterval: -1}},
		{"hedge", cluster.Options{HedgeDelay: 10 * time.Millisecond, RefreshInterval: -1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ended := make(chan error, 4)
			cl, _ := startClusterB(t, ext, path, [][]int{{0, 1, 2, 3}}, 2, c.o,
				hookNode(0, func(ctx context.Context, q *cluster.Request, answer func() []byte) []byte {
					select {
					case <-ctx.Done():
						ended <- nil
					case <-time.After(10 * time.Second):
						ended <- fmt.Errorf("the node's query context outlived the coordinator's attempt")
					}
					return answer()
				}))
			got, err := cl.Search(context.Background(), q, 0.3)
			if err != nil || !sameMatches(want, got) {
				t.Fatalf("%d matches, %v; want %d", len(got), err, len(want))
			}
			select {
			case err := <-ended:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the node's query context did not end within 5s of the coordinator giving up")
			}
		})
	}
}

package cluster_test

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"twinsearch/internal/cluster"
	"twinsearch/internal/datasets"
	"twinsearch/internal/series"
)

// BenchmarkClusterSearch prices the distributed hop: the same saved
// 4-shard index searched locally versus through a coordinator fanning
// out to N in-process nodes over the shard RPC's streams. The delta is
// serialization + loopback RPC + merge — what horizontal memory scaling
// costs per query. nodes=2/topk is the in-process counterpart of the
// bench module's cluster-r2 top-k (two groups, k = 10).
func BenchmarkClusterSearch(b *testing.B) {
	data := datasets.EEGN(83, 4000)
	ext := series.NewExtractor(data, series.NormGlobal)
	local, path := buildSaved(b, ext, 4)
	q := ext.ExtractCopy(1234, testL)

	b.Run("local", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			local.Search(q, 0.3)
		}
	})
	for _, c := range []struct {
		name  string
		nodes int
		topk  bool
	}{{"nodes=1", 1, false}, {"nodes=2", 2, false}, {"nodes=2/topk", 2, true}} {
		b.Run(c.name, func(b *testing.B) {
			cl, _ := startClusterB(b, ext, path, contiguousSplit(4, c.nodes), 1, cluster.Options{}, nil)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if c.topk {
					_, err = cl.SearchTopK(ctx, q, 10)
				} else {
					_, err = cl.Search(ctx, q, 0.3)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplicaFault prices one faulty replica on the query path:
// R = 2, one replica group, no membership sweep, and g0r0 — first in
// attempt order — faulted once the coordinator is open:
//
//   - dead: it is killed, so its stream is refused;
//   - wedged: requests are held until the coordinator gives up and
//     closes the stream, so an attempt costs the 100 ms Timeout;
//   - slow: every answer is 20 ms late, without and with a 2 ms hedge.
//
// The faults live in the node, at its frame-level seam, not in the
// coordinator's transport. Each sub-benchmark opens its cluster once:
// its first iterations pay for finding the fault, later ones run in the
// attempt order the coordinator keeps afterwards.
func BenchmarkReplicaFault(b *testing.B) {
	data := datasets.EEGN(83, 4000)
	ext := series.NewExtractor(data, series.NormGlobal)
	_, path := buildSaved(b, ext, 4)
	q := ext.ExtractCopy(1234, testL)
	wedged := func(ctx context.Context) { <-ctx.Done() }
	slow := func(context.Context) { time.Sleep(20 * time.Millisecond) }
	for _, c := range []struct {
		name  string
		o     cluster.Options
		fault func(ctx context.Context)
	}{
		{"dead", cluster.Options{}, nil},
		{"wedged", cluster.Options{Timeout: 100 * time.Millisecond}, wedged},
		{"slow/hedge=off", cluster.Options{}, slow},
		{"slow/hedge=on", cluster.Options{HedgeDelay: 2 * time.Millisecond}, slow},
	} {
		var on atomic.Bool
		c.o.RefreshInterval = -1
		cl, srvs := startClusterB(b, ext, path, [][]int{{0, 1, 2, 3}}, 2, c.o,
			hookNode(0, func(ctx context.Context, q *cluster.Request, answer func() []byte) []byte {
				if on.Load() && c.fault != nil {
					c.fault(ctx)
				}
				return answer()
			}))
		if c.fault == nil {
			srvs[0].Kill()
		}
		on.Store(true)
		b.Run(c.name, func(b *testing.B) {
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				if _, err := cl.Search(ctx, q, 0.3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// startClusterB is startReplicated without the chaos transport, for
// benchmarks and for tests that fault a node in its server: each run of
// shards is served by r nodes (g<run>r<replica>), node i's handler
// decorated by wrap(i, ·) when wrap is non-nil (see hookNode), and a
// coordinator is opened over them.
func startClusterB(b testing.TB, ext *series.Extractor, path string, runs [][]int, r int, o cluster.Options, wrap func(i int, h http.Handler) http.Handler) (*cluster.Coordinator, []*nodeServer) {
	b.Helper()
	topo := &cluster.Topology{Index: path, Replicas: r}
	for gi, run := range runs {
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
			b.Fatal(err)
		}
		srv := serveNode(b, n, i, wrap)
		topo.Nodes[i].Addr = srv.URL
		srvs = append(srvs, srv)
	}
	cl, err := cluster.OpenCoordinator(context.Background(), topo, ext, testL, o)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cl.Close() })
	return cl, srvs
}

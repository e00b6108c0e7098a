package cluster_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"twinsearch/internal/cluster"
	"twinsearch/internal/datasets"
	"twinsearch/internal/series"
)

// BenchmarkClusterSearch prices the distributed hop: the same saved
// 4-shard index searched locally versus through a coordinator fanning
// out to N in-process HTTP nodes. The delta is serialization + loopback
// RPC + merge — what horizontal memory scaling costs per query.
func BenchmarkClusterSearch(b *testing.B) {
	data := datasets.EEGN(83, 4000)
	ext := series.NewExtractor(data, series.NormGlobal)
	local, path := buildSaved(b, ext, 4)
	q := ext.ExtractCopy(1234, testL)

	b.Run("local", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			local.Search(q, 0.3)
		}
	})
	for _, nodes := range []int{1, 2} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			cl, _ := startClusterB(b, ext, path, contiguousSplit(4, nodes), 1, cluster.Options{}, nil)
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cl.Search(ctx, q, 0.3); err != nil {
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
//   - dead: its listener is closed, so connections are refused;
//   - wedged: requests are held until the client gives up, so an
//     attempt costs the 100 ms Timeout;
//   - slow: every answer is 20 ms late, without and with a 2 ms hedge.
//
// The faults live in the node's server, not in the coordinator's
// transport, so this file builds against any coordinator taking these
// options. Each sub-benchmark opens its cluster once: its first
// iterations pay for finding the fault, later ones run in the attempt
// order the coordinator keeps afterwards.
func BenchmarkReplicaFault(b *testing.B) {
	data := datasets.EEGN(83, 4000)
	ext := series.NewExtractor(data, series.NormGlobal)
	_, path := buildSaved(b, ext, 4)
	q := ext.ExtractCopy(1234, testL)
	wedged := func(r *http.Request) bool {
		// net/http notices a client hanging up only once the body is
		// read; until then the held request would outlive the benchmark.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
		return false
	}
	slow := func(*http.Request) bool {
		time.Sleep(20 * time.Millisecond)
		return true
	}
	for _, c := range []struct {
		name  string
		o     cluster.Options
		fault func(r *http.Request) bool // reports whether to answer after it
	}{
		{"dead", cluster.Options{}, nil},
		{"wedged", cluster.Options{Timeout: 100 * time.Millisecond}, wedged},
		{"slow/hedge=off", cluster.Options{}, slow},
		{"slow/hedge=on", cluster.Options{HedgeDelay: 2 * time.Millisecond}, slow},
	} {
		var on atomic.Bool
		c.o.RefreshInterval = -1
		cl, srvs := startClusterB(b, ext, path, [][]int{{0, 1, 2, 3}}, 2, c.o, func(i int, h http.Handler) http.Handler {
			if i != 0 {
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if on.Load() && c.fault != nil && !c.fault(r) {
					return
				}
				h.ServeHTTP(w, r)
			})
		})
		if c.fault == nil {
			srvs[0].CloseClientConnections()
			srvs[0].Close()
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
// benchmarks and for tests that fault a node in its server: each run of shards is served by r nodes (g<run>r<replica>),
// node i's handler decorated by wrap(i, ·) when wrap is non-nil, and a
// coordinator is opened over them.
func startClusterB(b testing.TB, ext *series.Extractor, path string, runs [][]int, r int, o cluster.Options, wrap func(i int, h http.Handler) http.Handler) (*cluster.Coordinator, []*httptest.Server) {
	b.Helper()
	topo := &cluster.Topology{Index: path, Replicas: r}
	for gi, run := range runs {
		for ri := 0; ri < r; ri++ {
			topo.Nodes = append(topo.Nodes, cluster.NodeSpec{
				Name: fmt.Sprintf("g%dr%d", gi, ri), Addr: "placeholder", Shards: run,
			})
		}
	}
	var srvs []*httptest.Server
	for i := range topo.Nodes {
		n, err := cluster.OpenNode(topo, topo.Nodes[i].Name, ext, cluster.NodeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { n.Close() })
		var h http.Handler = cluster.NewNodeRPC(n)
		if wrap != nil {
			h = wrap(i, h)
		}
		srv := httptest.NewServer(h)
		b.Cleanup(srv.Close)
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

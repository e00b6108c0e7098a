package cluster_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

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
			cl, _ := startClusterB(b, ext, path, contiguousSplit(4, nodes))
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

// startClusterB is startCluster for benchmarks.
func startClusterB(b *testing.B, ext *series.Extractor, path string, runs [][]int) (*cluster.Coordinator, []*httptest.Server) {
	b.Helper()
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
			b.Fatal(err)
		}
		b.Cleanup(func() { n.Close() })
		srv := httptest.NewServer(cluster.NewNodeRPC(n))
		b.Cleanup(srv.Close)
		topo.Nodes[i].Addr = srv.URL
		srvs = append(srvs, srv)
	}
	cl, err := cluster.OpenCoordinator(context.Background(), topo, ext, testL, cluster.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cl.Close() })
	return cl, srvs
}

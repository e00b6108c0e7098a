package cluster_test

import (
	"encoding/binary"
	"os"
	"strings"
	"testing"

	"twinsearch/internal/cluster"
	"twinsearch/internal/datasets"
	"twinsearch/internal/series"
)

// TestNodeRefusesDamagedSection: a node that reads the index file into
// the heap (NoMMap, or a host without mmap) verifies the segments it
// opens in full, so a file whose shard-0 upper section is damaged is
// refused naming the section — not accepted to answer short, as when
// such a node skipped the section checksums the way a mapped open
// does. A node assigned only undamaged shards opens, and so does a
// mapped node, which does not read the sections at open.
func TestNodeRefusesDamagedSection(t *testing.T) {
	ext := series.NewExtractor(datasets.RandomWalk(44, 3000), series.NormGlobal)
	_, path := buildSaved(t, ext, 4)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Shard 0's segment follows the container header (magic to count,
	// 5 boundaries, 4 segment lengths, checksum); its own header records
	// where each section starts, upper fourth and lower fifth.
	le := binary.LittleEndian
	seg := 12 + 8*5 + 8*4 + 4
	upper, lower := seg+int(le.Uint64(raw[seg+48+8*3:])), seg+int(le.Uint64(raw[seg+48+8*4:]))
	clear(raw[upper:lower])
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	topo := &cluster.Topology{Index: path, Nodes: []cluster.NodeSpec{
		{Name: "front", Addr: "http://unused", Shards: cluster.ShardList{0, 1}},
		{Name: "back", Addr: "http://unused", Shards: cluster.ShardList{2, 3}},
	}}
	_, err = cluster.OpenNode(topo, "front", ext, cluster.NodeOptions{NoMMap: true})
	if err == nil || !strings.Contains(err.Error(), "section upper checksum") {
		t.Fatalf("a heap node opened a damaged upper section: %v", err)
	}
	for name, o := range map[string]cluster.NodeOptions{"back": {NoMMap: true}, "front": {}} {
		n, err := cluster.OpenNode(topo, name, ext, o)
		if err != nil {
			t.Fatalf("node %s (NoMMap=%v): %v", name, o.NoMMap, err)
		}
		n.Close()
	}
}

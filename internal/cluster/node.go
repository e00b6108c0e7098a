package cluster

import (
	"fmt"

	"twinsearch/internal/arena"
	"twinsearch/internal/exec"
	"twinsearch/internal/series"
	"twinsearch/internal/shard"
)

// Node is one shard node's state: the shards of the saved index it
// serves, opened selectively, plus the identity the topology gave it.
// NodeRPC serves the shard RPC over it.
type Node struct {
	Name string
	Sub  *shard.Index

	ar *arena.Arena // owned when OpenNode mapped/read the index file
}

// NodeOptions configures OpenNode.
type NodeOptions struct {
	// Workers sizes the node's query executor (0 = one per CPU).
	Workers int
	// NoMMap reads the index file into a heap arena instead of
	// memory-mapping it, and then verifies the assigned segments in full
	// (section checksums, invariants, ownership). The default prefers
	// the mapping (selective open then costs O(assigned segments), and N
	// nodes on one machine share one physical copy; headers and
	// structure are checked, sections are not read) and reads the file
	// where it cannot be mapped.
	NoMMap bool
	// Prefetch warms the mapping after a selective open — see
	// arena.Prefetch. Pointless (but harmless) with NoMMap.
	Prefetch bool
}

// OpenNode opens the shards the topology assigns to name: the index
// file is mapped (or read, see NodeOptions.NoMMap) and only the
// assigned segments are interpreted — unassigned segments are skipped
// via the segment table, so startup cost and mapped footprint scale
// with the assignment, not the index. ext must present the same series
// and normalization the index was built with.
func OpenNode(topo *Topology, name string, ext *series.Extractor, o NodeOptions) (*Node, error) {
	spec, err := topo.Node(name)
	if err != nil {
		return nil, err
	}
	if topo.Index == "" {
		return nil, fmt.Errorf("cluster: topology names no index file for node %q", name)
	}
	ar, err := arena.Open(topo.Index, !o.NoMMap)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	sub, err := shard.OpenArenaShards(ar, ext, exec.New(o.Workers), spec.Shards)
	if err != nil {
		ar.Close()
		return nil, fmt.Errorf("cluster: node %q: %w", name, err)
	}
	if o.Prefetch {
		ar.Prefetch(0)
	}
	return &Node{Name: name, Sub: sub, ar: ar}, nil
}

// Health reports the node's /healthz document.
func (n *Node) Health() NodeHealth {
	return NodeHealth{
		Status:      "ok",
		Role:        "node",
		Name:        n.Name,
		Frame:       FrameVersion,
		L:           n.Sub.L(),
		Norm:        n.Sub.Extractor().Mode().String(),
		SeriesLen:   n.Sub.Extractor().Len(),
		Windows:     n.Sub.Windows(),
		Shards:      n.Sub.ShardIDs(),
		TotalShards: n.Sub.TotalShards(),
		HeapBytes:   n.Sub.MemoryBytes(),
		MappedBytes: n.Sub.MappedBytes(),
	}
}

// Close releases the node's arena (unmapping the index region). No
// search may run on the node's shards during or after it.
func (n *Node) Close() error {
	if n.ar == nil {
		return nil
	}
	ar := n.ar
	n.ar = nil
	return ar.Close()
}

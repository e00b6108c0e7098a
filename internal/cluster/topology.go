package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// ShardList is a set of global shard indices. In JSON it unmarshals
// from either an explicit array ([0,1,4]) or a compact range string
// ("0-3,7"); it always normalizes to ascending order without
// duplicates.
type ShardList []int

// UnmarshalJSON implements json.Unmarshaler.
func (s *ShardList) UnmarshalJSON(b []byte) error {
	var ids []int
	if err := json.Unmarshal(b, &ids); err == nil {
		*s = normalizeShards(ids)
		return nil
	}
	var spec string
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("cluster: shards must be an array of indices or a range string like \"0-3,7\"")
	}
	ids, err := ParseShardRanges(spec)
	if err != nil {
		return err
	}
	*s = ids
	return nil
}

// ParseShardRanges parses a compact shard spec: comma-separated single
// indices and inclusive lo-hi ranges, e.g. "0-3,7" → [0 1 2 3 7].
func ParseShardRanges(spec string) ([]int, error) {
	var ids []int
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("cluster: empty entry in shard spec %q", spec)
		}
		lo, hi, found := strings.Cut(part, "-")
		a, err := strconv.Atoi(strings.TrimSpace(lo))
		if err != nil || a < 0 {
			return nil, fmt.Errorf("cluster: bad shard index %q in spec %q", lo, spec)
		}
		b := a
		if found {
			if b, err = strconv.Atoi(strings.TrimSpace(hi)); err != nil || b < a {
				return nil, fmt.Errorf("cluster: bad shard range %q in spec %q", part, spec)
			}
		}
		if b-a >= 1<<20 {
			return nil, fmt.Errorf("cluster: implausible shard range %q", part)
		}
		for i := a; i <= b; i++ {
			ids = append(ids, i)
		}
	}
	return normalizeShards(ids), nil
}

func normalizeShards(ids []int) []int {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// NodeSpec names one shard node: where to reach it and which global
// shards of the saved index it serves. Addr is the node's http or https
// base URL ("http://10.0.0.5:8081").
type NodeSpec struct {
	Name   string    `json:"name"`
	Addr   string    `json:"addr"`
	Shards ShardList `json:"shards"`
}

// Topology is the static cluster layout: the saved TSSH v5 index every
// node opens its slice of, the node → shard-set assignment, and the
// replication factor. With Replicas R ≥ 2, every shard must be owned
// by exactly R distinct nodes and owners of one shard must mirror each
// other's whole shard set — assignments form replica groups of R
// interchangeable nodes, the unit the coordinator fails over and
// hedges across. The assignment's shard sets must partition the
// index's shards exactly — validated against the real shard count when
// a coordinator or node opens it.
type Topology struct {
	// Index is the path of the saved sharded index (TSSH v5). Relative
	// paths are resolved against the topology file's directory by
	// LoadTopology.
	Index string     `json:"index"`
	Nodes []NodeSpec `json:"nodes"`
	// Replicas is the replication factor R: how many distinct nodes own
	// every shard (0 means 1, the unreplicated default).
	Replicas int `json:"replicas,omitempty"`
}

// R returns the effective replication factor (Replicas, defaulting
// to 1).
func (t *Topology) R() int { return max(t.Replicas, 1) }

// ParseTopology decodes and validates a topology document. Coverage of
// the index's full shard range needs the shard count, which only the
// index file knows, so only per-document invariants are checked here:
// unique non-empty names, http(s) addresses, non-empty shard sets, and
// a well-formed replicated assignment (exactly R owners per listed
// shard, owners mirroring whole shard sets).
func ParseTopology(r io.Reader) (*Topology, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var t Topology
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("cluster: topology: %w", err)
	}
	if len(t.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: topology lists no nodes")
	}
	names := make(map[string]bool, len(t.Nodes))
	for i, n := range t.Nodes {
		if n.Name == "" {
			return nil, fmt.Errorf("cluster: topology node %d has no name", i)
		}
		if names[n.Name] {
			return nil, fmt.Errorf("cluster: topology names node %q twice", n.Name)
		}
		names[n.Name] = true
		if err := checkAddr(n); err != nil {
			return nil, err
		}
		if len(n.Shards) == 0 {
			return nil, fmt.Errorf("cluster: topology node %q serves no shards", n.Name)
		}
	}
	if err := t.validateAssignment(-1); err != nil {
		return nil, err
	}
	return &t, nil
}

// checkAddr refuses a node address the coordinator cannot dial: every
// node is reached over the shard RPC at an http or https base URL.
func checkAddr(n NodeSpec) error {
	switch u, err := url.Parse(n.Addr); {
	case n.Addr == "":
		return fmt.Errorf("cluster: topology node %q has no addr", n.Name)
	case n.Addr == "local":
		return fmt.Errorf("cluster: topology node %q has addr \"local\": in-process entries are gone; serve those shards with tsserve -role node and list its http URL", n.Name)
	case err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "":
		return fmt.Errorf("cluster: topology node %q has addr %q; want an http or https URL like \"http://10.0.0.5:8081\"", n.Name, n.Addr)
	}
	return nil
}

// LoadTopology reads a topology file, resolving a relative index path
// against the file's own directory so the document works from any cwd.
func LoadTopology(path string) (*Topology, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	defer f.Close()
	t, err := ParseTopology(f)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", path, err)
	}
	if t.Index != "" && !filepath.IsAbs(t.Index) {
		t.Index = filepath.Join(filepath.Dir(path), t.Index)
	}
	return t, nil
}

// Node returns the spec with the given name.
func (t *Topology) Node(name string) (NodeSpec, error) {
	for _, n := range t.Nodes {
		if n.Name == name {
			return n, nil
		}
	}
	return NodeSpec{}, fmt.Errorf("cluster: topology has no node %q", name)
}

// checkCoverage verifies the replicated assignment covers [0, total)
// exactly: every shard of the index owned by exactly R nodes, no shard
// out of range. The full validation repeats ParseTopology's so
// topologies built programmatically (never parsed) fail cleanly too.
func (t *Topology) checkCoverage(total int) error {
	if err := t.validateAssignment(total); err != nil {
		return err
	}
	seen := make([]bool, total)
	for _, n := range t.Nodes {
		for _, id := range n.Shards {
			seen[id] = true
		}
	}
	for id, ok := range seen {
		if !ok {
			return fmt.Errorf("cluster: shard %d of %d assigned to no node", id, total)
		}
	}
	return nil
}

// validateAssignment checks the shape of the node → shard assignment
// under the topology's replication factor: no node lists a shard
// twice, every listed shard has exactly R distinct owners, and owners
// of one shard mirror each other's whole shard set (replica groups).
// total ≥ 0 additionally range-checks the ids (open time; parse time
// passes -1 because only the index file knows the real shard count).
func (t *Topology) validateAssignment(total int) error {
	if t.Replicas < 0 {
		return fmt.Errorf("cluster: topology replicas %d; the factor must be at least 1", t.Replicas)
	}
	r := t.R()
	if r > len(t.Nodes) {
		return fmt.Errorf("cluster: replication factor %d exceeds the %d listed node(s)", r, len(t.Nodes))
	}
	owners := map[int][]string{} // shard id → owning node names
	keys := map[string]string{}  // node name → canonical shard-set key
	for _, n := range t.Nodes {
		mine := make(map[int]bool, len(n.Shards))
		for _, id := range n.Shards {
			// The range-string parser already refuses negatives; the
			// JSON-array and programmatic forms must too, or coverage
			// would index a slice with the bad id instead of reporting
			// it.
			if id < 0 {
				return fmt.Errorf("cluster: topology node %q serves negative shard %d", n.Name, id)
			}
			if total >= 0 && id >= total {
				return fmt.Errorf("cluster: node %q serves shard %d, index has %d", n.Name, id, total)
			}
			if mine[id] {
				return fmt.Errorf("cluster: node %q lists shard %d twice", n.Name, id)
			}
			mine[id] = true
			owners[id] = append(owners[id], n.Name)
		}
		keys[n.Name] = shardSetKey(n.Shards)
	}
	for id, who := range owners {
		if len(who) != r {
			if r == 1 && len(who) == 2 {
				return fmt.Errorf("cluster: shard %d assigned to both %q and %q", id, who[0], who[1])
			}
			return fmt.Errorf("cluster: shard %d has %d owner(s) (%v), replication factor %d requires exactly %d",
				id, len(who), who, r, r)
		}
		for _, name := range who[1:] {
			if keys[name] != keys[who[0]] {
				return fmt.Errorf("cluster: nodes %q and %q both serve shard %d but with different shard sets; replicas must mirror whole shard sets",
					who[0], name, id)
			}
		}
	}
	return nil
}

// shardSetKey canonicalizes a shard list for replica-group comparison
// and grouping.
func shardSetKey(ids []int) string {
	return fmt.Sprint(slices.Sorted(slices.Values(ids)))
}

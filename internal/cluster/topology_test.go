package cluster

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseShardRanges(t *testing.T) {
	cases := []struct {
		in   string
		want []int
	}{
		{"0", []int{0}},
		{"0-3", []int{0, 1, 2, 3}},
		{"0-1,3", []int{0, 1, 3}},
		{"3, 0-1", []int{0, 1, 3}},
		{"2,2,2", []int{2}}, // duplicates collapse
	}
	for _, c := range cases {
		got, err := ParseShardRanges(c.in)
		if err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%q → %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "x", "3-1", "-1", "1-", ",", "0-9999999"} {
		if _, err := ParseShardRanges(bad); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
}

func TestParseTopology(t *testing.T) {
	good := `{"index":"idx.tsidx","nodes":[
		{"name":"a","addr":"http://h1:1","shards":"0-1"},
		{"name":"b","addr":"http://h2:2","shards":[2,3]}]}`
	topo, err := ParseTopology(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Nodes) != 2 || !reflect.DeepEqual([]int(topo.Nodes[0].Shards), []int{0, 1}) {
		t.Fatalf("topology = %+v", topo)
	}
	if n, err := topo.Node("b"); err != nil || n.Addr != "http://h2:2" {
		t.Fatalf("Node(b) = %+v, %v", n, err)
	}
	if _, err := topo.Node("zzz"); err == nil {
		t.Fatal("unknown node resolved")
	}

	bad := map[string]string{
		"no nodes":       `{"index":"i"}`,
		"dup name":       `{"nodes":[{"name":"a","addr":"x","shards":[0]},{"name":"a","addr":"y","shards":[1]}]}`,
		"no name":        `{"nodes":[{"addr":"x","shards":[0]}]}`,
		"no addr":        `{"nodes":[{"name":"a","shards":[0]}]}`,
		"no shards":      `{"nodes":[{"name":"a","addr":"x"}]}`,
		"dup shard":      `{"nodes":[{"name":"a","addr":"x","shards":[0]},{"name":"b","addr":"y","shards":[0]}]}`,
		"unknown fields": `{"nodes":[{"name":"a","addr":"x","shards":[0],"weight":2}]}`,
		"bad shards":     `{"nodes":[{"name":"a","addr":"x","shards":true}]}`,
		"negative shard": `{"nodes":[{"name":"a","addr":"x","shards":[-1,0]}]}`,

		// Replicated assignments.
		"negative replicas": `{"replicas":-1,"nodes":[{"name":"a","addr":"x","shards":[0]}]}`,
		"R exceeds nodes":   `{"replicas":3,"nodes":[{"name":"a","addr":"x","shards":[0]},{"name":"b","addr":"y","shards":[0]}]}`,
		"under-replicated":  `{"replicas":2,"nodes":[{"name":"a","addr":"x","shards":[0]},{"name":"b","addr":"y","shards":[0]},{"name":"c","addr":"z","shards":[1]}]}`,
		"over-replicated":   `{"replicas":2,"nodes":[{"name":"a","addr":"x","shards":[0]},{"name":"b","addr":"y","shards":[0]},{"name":"c","addr":"z","shards":[0]}]}`,
		"mismatched replica sets": `{"replicas":2,"nodes":[
			{"name":"a","addr":"w","shards":[0,1]},{"name":"b","addr":"x","shards":[0,2]},
			{"name":"c","addr":"y","shards":[1,2]}]}`,
	}
	for name, doc := range bad {
		if _, err := ParseTopology(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// A well-formed replicated document parses: two mirrored pairs.
	replicated := `{"replicas":2,"nodes":[
		{"name":"a1","addr":"http://h1:1","shards":"0-1"},
		{"name":"a2","addr":"http://h2:2","shards":[0,1]},
		{"name":"b1","addr":"http://h3:3","shards":[2]},
		{"name":"b2","addr":"http://h4:4","shards":[2]}]}`
	topo2, err := ParseTopology(strings.NewReader(replicated))
	if err != nil {
		t.Fatalf("replicated topology rejected: %v", err)
	}
	if topo2.R() != 2 {
		t.Fatalf("R() = %d, want 2", topo2.R())
	}
}

// TestValidateAssignmentDuplicateOwner covers the programmatic path:
// one node listing the same shard twice must be refused even though
// ShardList's JSON unmarshaler normally collapses duplicates before
// validation sees them.
func TestValidateAssignmentDuplicateOwner(t *testing.T) {
	topo := &Topology{Nodes: []NodeSpec{{Name: "a", Addr: "x", Shards: []int{0, 0}}}}
	err := topo.validateAssignment(-1)
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate shard on one node: err = %v", err)
	}
}

// TestLoadTopologyResolvesIndex checks a relative index path resolves
// against the topology file's directory, not the process cwd.
func TestLoadTopologyResolvesIndex(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "topo.json")
	doc := `{"index":"idx.tsidx","nodes":[{"name":"a","addr":"local","shards":[0]}]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	topo, err := LoadTopology(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "idx.tsidx"); topo.Index != want {
		t.Fatalf("index resolved to %q, want %q", topo.Index, want)
	}
}

func TestCheckCoverage(t *testing.T) {
	topo := &Topology{Nodes: []NodeSpec{
		{Name: "a", Addr: "x", Shards: []int{0, 1}},
		{Name: "b", Addr: "y", Shards: []int{2}},
	}}
	if err := topo.checkCoverage(3); err != nil {
		t.Fatalf("complete coverage rejected: %v", err)
	}
	if err := topo.checkCoverage(4); err == nil {
		t.Fatal("hole accepted")
	}
	if err := topo.checkCoverage(2); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	neg := &Topology{Nodes: []NodeSpec{{Name: "a", Addr: "x", Shards: []int{-1, 0, 1, 2}}}}
	if err := neg.checkCoverage(3); err == nil {
		t.Fatal("negative shard accepted (programmatic topology)")
	}
}

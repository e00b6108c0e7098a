package cluster_test

// Cross-node trace stitching: a forced trace on a replicated cluster
// must come back as ONE tree — coordinator spans (unit / attempt /
// merge) with each node's own subtree grafted under the attempt that
// won — and forcing it must leave the answer byte-identical to an
// untraced run. A Refuse chaos rule on the first replica proves the
// failed-then-failed-over shape is visible in the tree: an attempt
// with outcome=error followed by a winning failover attempt carrying
// the node's subtree. (A transient single-request fault won't do — the
// transport-level retry absorbs it below the attempt spans.)

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"twinsearch/internal/cluster"
	"twinsearch/internal/datasets"
	"twinsearch/internal/obs"
	"twinsearch/internal/series"
)

// collectSpans flattens a span tree into (span, parent) pairs.
func collectSpans(root *obs.Span) []*obs.Span {
	var out []*obs.Span
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		out = append(out, s)
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(root)
	return out
}

func TestForcedTraceStitched(t *testing.T) {
	data := datasets.EEGN(71, 1800)
	ctx := context.Background()
	ext := series.NewExtractor(data, series.NormGlobal)
	_, path := buildSaved(t, ext, 4)
	cl, srvs, chaos := startReplicated(t, ext, path, [][]int{{0, 1}, {2, 3}}, 2, cluster.Options{
		Timeout: 10 * time.Second,
	})
	q := ext.ExtractCopy(777, testL)

	// Untraced baseline answer.
	wantM, wantSt, err := cl.SearchStats(ctx, q, 0.3)
	if err != nil {
		t.Fatal(err)
	}

	// srvs[0] is g0r0, group 0's first-attempt replica (topology order):
	// refusing all its connections forces the traced query to fail over
	// to g0r1.
	chaos.Set(hostOf(t, srvs[0]), ChaosRule{Refuse: true})

	tr := obs.NewTrace("coordinator")
	gotM, gotSt, err := cl.SearchStats(obs.WithSpan(ctx, tr.Root), q, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()

	// The traced answer is byte-identical to the untraced one.
	if !sameMatches(wantM, gotM) {
		t.Fatalf("traced search diverged (%d vs %d results)", len(gotM), len(wantM))
	}
	if !reflect.DeepEqual(wantSt, gotSt) {
		t.Fatalf("traced stats diverged: %+v vs %+v", gotSt, wantSt)
	}

	spans := collectSpans(tr.Root)
	units, merges := 0, 0
	failed, failedOver := false, false
	nodeSubtrees := map[string]bool{}
	for _, s := range spans {
		switch {
		case s.Name == "unit":
			units++
		case s.Name == "merge":
			merges++
		case s.Name == "attempt":
			switch s.Attrs["outcome"] {
			case "error":
				failed = true
			case "ok":
				if s.Attrs["kind"] == "failover" {
					failedOver = true
				}
				// The winning attempt must carry the node's grafted
				// subtree, whose root names the node.
				sub := ""
				for _, c := range s.Children {
					if strings.HasPrefix(c.Name, "node:") {
						sub = c.Name
					}
				}
				if sub == "" {
					t.Fatalf("winning attempt on %v has no node: subtree (children: %v)", s.Attrs["node"], s.Children)
				}
				nodeSubtrees[sub] = true
			}
			if s.Attrs["alive"] == nil || s.Attrs["node"] == nil {
				t.Fatalf("attempt span missing node/alive attrs: %v", s.Attrs)
			}
		case strings.HasPrefix(s.Name, "node:"):
			// A node subtree must itself contain shard-layer spans —
			// proof it was recorded node-side, not fabricated here.
			if len(s.Children) == 0 {
				t.Fatalf("node subtree %s is empty", s.Name)
			}
		}
	}
	if units != 2 {
		t.Fatalf("stitched tree has %d unit spans, want 2 (one per replica group)", units)
	}
	if merges == 0 {
		t.Fatal("stitched tree has no merge span")
	}
	if !failed || !failedOver {
		t.Fatalf("stitched tree shows failed=%v failedOver=%v, want both (FailFirst chaos on g0r0)", failed, failedOver)
	}
	if len(nodeSubtrees) != 2 {
		t.Fatalf("stitched tree grafts subtrees from %v, want one per group", nodeSubtrees)
	}
}

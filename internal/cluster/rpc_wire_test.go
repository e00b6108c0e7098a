package cluster

// The shard RPC's side of internal/wire: every body a node used to
// take or refuse through encoding/json, it takes or refuses with the
// same status and the same bytes.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"twinsearch/internal/core"
	"twinsearch/internal/datasets"
	"twinsearch/internal/series"
	"twinsearch/internal/shard"
)

// stdlibRPC is what a node answered before internal/wire: the body
// through json.NewDecoder into the endpoint's struct, the same
// screening, the answer through toWire and json.NewEncoder. It reports
// status 0 for a traced request, whose answer carries timings.
func stdlibRPC(n *Node, path string, body []byte) (int, []byte) {
	encode := func(status int, v interface{}) (int, []byte) {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			panic(err)
		}
		return status, buf.Bytes()
	}
	fail := func(err error) (int, []byte) {
		return encode(http.StatusBadRequest, map[string]string{"error": err.Error()})
	}
	badBody := func(err error) (int, []byte) { return fail(fmt.Errorf("bad request body: %w", err)) }
	dec := json.NewDecoder(bytes.NewReader(body))
	ctx, l := context.Background(), n.Sub.L()
	var (
		ms    []series.Match
		st    *core.Stats
		err   error
		trace bool
	)
	switch path {
	case "/shard/search", "/shard/prefix":
		var req SearchRequest
		if err := dec.Decode(&req); err != nil {
			return badBody(err)
		}
		trace = req.Trace
		if path == "/shard/prefix" {
			if err := validateRPCValues(req.Query, req.Eps); err != nil {
				return fail(err)
			}
			ms, err = n.Sub.SearchPrefixTreeCtx(ctx, req.Query, req.Eps)
			break
		}
		if err := validateRPCQuery(req.Query, l, req.Eps); err != nil {
			return fail(err)
		}
		var s core.Stats
		ms, s, err = n.Sub.SearchStatsCtx(ctx, req.Query, req.Eps)
		st = &s
	case "/shard/topk":
		var req TopKRequest
		if err := dec.Decode(&req); err != nil {
			return badBody(err)
		}
		trace = req.Trace
		if err := validateRPCQuery(req.Query, l, 0); err != nil {
			return fail(err)
		}
		bound := math.Inf(1)
		if req.Bound != nil {
			if math.IsNaN(*req.Bound) || *req.Bound < 0 {
				return fail(fmt.Errorf("invalid bound %v", *req.Bound))
			}
			bound = *req.Bound
		}
		ms, err = n.Sub.SearchTopKCtx(ctx, req.Query, req.K, bound)
	case "/shard/approx":
		var req ApproxRequest
		if err := dec.Decode(&req); err != nil {
			return badBody(err)
		}
		trace = req.Trace
		if err := validateRPCQuery(req.Query, l, req.Eps); err != nil {
			return fail(err)
		}
		if req.LeafBudget <= 0 {
			return fail(fmt.Errorf("leaf budget %d; a positive probe count is required", req.LeafBudget))
		}
		var s core.Stats
		ms, s, err = n.Sub.SearchApproxCtx(ctx, req.Query, req.Eps, req.LeafBudget)
		st = &s
	}
	if err != nil {
		return fail(err)
	}
	if trace {
		return 0, nil
	}
	return encode(http.StatusOK, SearchResponse{Matches: toWire(ms), Stats: st})
}

func TestOddRPCBodiesAnswerAsEncodingJSON(t *testing.T) {
	const l = 8
	ext := series.NewExtractor(datasets.RandomWalk(91, 1500), series.NormGlobal)
	ix, err := shard.Build(ext, shard.Config{Config: core.Config{L: l}, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "idx.tsidx")
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
	n, err := OpenNode(&Topology{Index: path, Nodes: []NodeSpec{{Name: "n0", Addr: "http://unused", Shards: []int{0, 1, 2}}}},
		"n0", ext, NodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	srv := httptest.NewServer(NewNodeRPC(n))
	defer srv.Close()

	raw, _ := json.Marshal(ext.ExtractCopy(300, l))
	q := string(raw)
	short, _ := json.Marshal(ext.ExtractCopy(300, l/2))
	for _, body := range []string{
		// Canonical: what the coordinator's json.Marshal writes. Leaf
		// budgets saturate, since a budget the shards race for has more
		// than one valid answer.
		`{"query":` + q + `,"eps":0.4}`,
		`{"query":` + q + `,"k":3}`,
		`{"query":` + q + `,"k":3,"bound":0.3}`,
		`{"query":` + q + `,"eps":0.4,"leaf_budget":50000}`,
		`{"query":` + string(short) + `,"eps":0.4}`,
		`{"query":` + q + `,"eps":0.4,"k":3,"leaf_budget":50000,"trace":false}`,
		`{"query":` + q + `,"eps":0.4,"k":3,"leaf_budget":50000,"trace":true}`,
		`{"query":` + q + `,"eps":0.4,"k":3,"bound":0,"leaf_budget":60000}`,
		`{"query":` + q + `,"eps":0.4,"k":3,"bound":-0.5,"leaf_budget":-1}`,
		`{"query":` + q + `,"eps":-1,"k":-1,"leaf_budget":0}`,
		`{}`,
		`{"query":[],"eps":1}`,
		// Odd but valid.
		" {\n\"leaf_budget\" : 50000 ,\t\"k\" : 3 , \"eps\" : 4E-1 , \"query\" :\r\n" + strings.ReplaceAll(q, ",", " , ") + " } \n",
		`{"QUERY":` + q + `,"Eps":0.4,"K":3,"Leaf_Budget":50000,"BOUND":0.3,"TRACE":false}`,
		`{"qu\u0065ry":` + q + `,"\u0065ps":0.4,"\u006b":3,"leaf\u005fbudget":50000}`,
		`{"query":[9],"query":` + q + `,"eps":9,"eps":0.4,"k":9,"k":3,"leaf_budget":9,"leaf_budget":500000000,"bound":9,"bound":0.3}`,
		`{"query":` + q + `,"eps":0.4,"k":3,"leaf_budget":50000,"bound":0.3,"bound":null,"query":null,"trace":null}`,
		`{"query":` + q + `,"eps":0.4,"k":3,"leaf_budget":50000,"bound":null,"trace":null}`,
		`{"query":` + q + `,"eps":0.4,"k":3,"leaf_budget":50000,"values":"ignored","extra":[{}]}`,
		`{"query":` + q + `,"eps":0.4,"k":3,"leaf_budget":50000} trailing`,
		`{"query":` + q + `,"eps":0.4,"k":3,"leaf_budget":50000}{}`,
		`{"query":` + q + `,"eps":-0,"k":-0,"leaf_budget":70000,"bound":-0}`,
		`{"query":` + q + `,"eps":0.4,"k":3,"leaf_budget":50000,"bound":1e-400}`,
		// Refused, in encoding/json's words.
		``,
		`{`,
		`{"query":` + q,
		`nope`,
		`null`,
		`{"query":` + q + `,"eps":1e999,"bound":1e999}`,
		`{"query":[1e999]}`,
		`{"query":` + q + `,"k":3.0,"leaf_budget":50000.0}`,
		`{"query":` + q + `,"k":9223372036854775808,"leaf_budget":9223372036854775808}`,
		`{"query":` + q + `,"eps":0.4,"k":3,"leaf_budget":50000,"trace":1}`,
		`{"query":` + q + `,"eps":0.4,"k":3,"leaf_budget":50000,"trace":"true"}`,
		`{"query":` + q + `,"eps":0.4,"k":3,"leaf_budget":50000,"trace":truth}`,
		`{"query":` + q + `,"eps":0.4,"k":3,"leaf_budget":50000,"bound":"0.3"}`,
		`{"query":[01]}`,
		`{"query":[NaN]}`,
		`{"query":` + q + `,}`,
	} {
		for _, ep := range []string{"/shard/search", "/shard/topk", "/shard/prefix", "/shard/approx"} {
			resp, err := http.Post(srv.URL+ep, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			wantStatus, want := stdlibRPC(n, ep, []byte(body))
			if wantStatus == 0 { // traced: a 200 whose trace is the node's
				var sr SearchResponse
				if err := json.Unmarshal(got, &sr); resp.StatusCode != http.StatusOK || err != nil || sr.Trace == nil || sr.Trace.Name != "node:n0" {
					t.Errorf("%s %q: traced answer %d %.200s", ep, body, resp.StatusCode, got)
				}
				continue
			}
			if resp.StatusCode != wantStatus || !bytes.Equal(got, want) {
				t.Errorf("%s %q:\n got %d %s\nwant %d %s", ep, body, resp.StatusCode, got, wantStatus, want)
			}
		}
	}

	// The limit and the method check come from the shared reader.
	big := httptest.NewRequest(http.MethodPost, "/shard/search", strings.NewReader("{}"))
	big.ContentLength = 1 << 40
	rec := httptest.NewRecorder()
	NewNodeRPC(n).ServeHTTP(rec, big)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("declared 1 TiB body: status %d %s", rec.Code, rec.Body)
	}
}

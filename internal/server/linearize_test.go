package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"twinsearch"
	"twinsearch/internal/datasets"
	"twinsearch/internal/oracle"
	"twinsearch/internal/series"
)

// TestAppendLinearizable races /append against /search and /topk on a
// serving engine with both caches on: one client appends chunks in
// order — copies of the query windows, which become new exact twins,
// and one chunk long enough to carry the tail past its compaction
// bound — while three clients query. The window count only grows, so
// an answer is linearizable iff it is the definition's at some append
// count between the appends acknowledged before the request was sent
// and those acknowledged after its answer arrived, plus the one that
// may have been applied but not yet acknowledged.
func TestAppendLinearizable(t *testing.T) {
	const l, eps, k = 50, 0.6, 5
	data := datasets.EEGN(91, 3000)
	starts := []int{120, 1333, 2710}
	var queries [][]float64
	var chunks [][]float64
	for _, s := range starts {
		queries = append(queries, slices.Clone(data[s:s+l]))
	}
	for i := 0; i < 9; i++ {
		chunks = append(chunks, queries[i%len(queries)])
		if i == 4 {
			chunks = append(chunks, datasets.EEGN(92, 4200))
		}
	}

	// want[s][qi] is the definition's answer after s appends.
	ext := series.NewExtractor(slices.Clone(data), twinsearch.NormGlobal)
	type answer struct{ rng, top []series.Match }
	want := make([][]answer, len(chunks)+1)
	for s := range want {
		if s > 0 {
			ext.Append(chunks[s-1]...)
		}
		for _, q := range queries {
			tq := ext.TransformQuery(q)
			want[s] = append(want[s], answer{oracle.Range(ext, tq, eps), oracle.TopK(ext, tq, k)})
		}
	}
	if len(want[len(chunks)][0].rng) <= len(want[0][0].rng) {
		t.Fatal("the appends add no twin to the first query")
	}

	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			eng, err := twinsearch.Open(slices.Clone(data), twinsearch.Options{L: l, Shards: shards, Workers: 2,
				PlanCache: -1, ResultCacheBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			srv := httptest.NewServer(New(eng))
			defer srv.Close()

			var acked atomic.Int64
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, c := range chunks {
					if code, _ := post(srv.URL+"/append", map[string]any{"values": c}); code != http.StatusOK {
						t.Errorf("append: status %d", code)
						return
					}
					acked.Add(1)
				}
			}()
			for c := 0; c < 3; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; acked.Load() < int64(len(chunks)) || i < 12; i++ {
						qi, topk := (i+c)%len(queries), i%2 == 1
						body, path := map[string]any{"query": queries[qi], "eps": eps}, "/search"
						if topk {
							body, path = map[string]any{"query": queries[qi], "k": k}, "/topk"
						}
						lo := int(acked.Load())
						code, got := post(srv.URL+path, body)
						hi := min(int(acked.Load())+1, len(chunks))
						if code != http.StatusOK {
							t.Errorf("%s: status %d", path, code)
							return
						}
						ok := false
						for s := lo; s <= hi && !ok; s++ {
							w := want[s][qi].rng
							if topk {
								w = want[s][qi].top
							}
							ok = sameAnswer(got, w, topk)
						}
						if !ok {
							t.Errorf("%s q%d: %v is no answer of the definition after %d to %d appends", path, qi, got, lo, hi)
							return
						}
					}
				}()
			}
			wg.Wait()
			if st := eng.ServingStats(); st.TailWindows >= 4096 || st.Result.Hits == 0 {
				t.Fatalf("the run never compacted or never hit the cache: %+v", st)
			}
		})
	}
}

// post sends body as JSON and decodes the answer's matches.
func post(url string, body any) (int, []series.Match) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, nil
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	var out struct {
		Matches []struct {
			Start int      `json:"start"`
			Dist  *float64 `json:"dist"`
		} `json:"matches"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return resp.StatusCode, nil
	}
	ms := make([]series.Match, len(out.Matches))
	for i, m := range out.Matches {
		ms[i] = series.Match{Start: m.Start, Dist: -1}
		if m.Dist != nil {
			ms[i].Dist = *m.Dist
		}
	}
	return resp.StatusCode, ms
}

// sameAnswer compares starts, and for top-k the distances' bits.
func sameAnswer(got, want []series.Match, topk bool) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Start != want[i].Start || topk && math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			return false
		}
	}
	return true
}

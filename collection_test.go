package twinsearch

import (
	"errors"
	"math"
	"strings"
	"testing"

	"twinsearch/internal/datasets"
)

func collectionFixture(t *testing.T) ([][]float64, *Collection) {
	t.Helper()
	set := [][]float64{
		datasets.EEGN(101, 4000),
		datasets.EEGN(102, 5000),
		datasets.EEGN(103, 3000),
	}
	c, err := OpenCollection(set, Options{L: 100})
	if err != nil {
		t.Fatal(err)
	}
	return set, c
}

func TestCollectionSearchAcrossMembers(t *testing.T) {
	set, c := collectionFixture(t)
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	// Query sampled from member 1 must find itself in member 1.
	q := append([]float64(nil), set[1][2000:2100]...)
	ms, err := c.Search(q, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range ms {
		if m.Series == 1 && m.Start == 2000 {
			found = true
		}
	}
	if !found {
		t.Fatal("self match missing from collection results")
	}
	// Results must agree with per-member searches.
	total := 0
	for i := 0; i < c.Len(); i++ {
		per, err := c.Engine(i).Search(q, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		total += len(per)
	}
	if total != len(ms) {
		t.Fatalf("collection %d vs per-member sum %d", len(ms), total)
	}
	// Canonical order.
	for i := 1; i < len(ms); i++ {
		a, b := ms[i-1], ms[i]
		if a.Series > b.Series || (a.Series == b.Series && a.Start >= b.Start) {
			t.Fatal("results not in (series, start) order")
		}
	}
}

func TestCollectionTopK(t *testing.T) {
	set, c := collectionFixture(t)
	q := append([]float64(nil), set[2][500:600]...)
	top, err := c.SearchTopK(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 5 {
		t.Fatalf("got %d", len(top))
	}
	if top[0].Series != 2 || top[0].Start != 500 || top[0].Dist != 0 {
		t.Fatalf("nearest must be the source window: %+v", top[0])
	}
	for i := 1; i < len(top); i++ {
		if top[i].Dist < top[i-1].Dist {
			t.Fatal("top-k not sorted by distance")
		}
	}
	if ms, err := c.SearchTopK(q, 0); err != nil || ms != nil {
		t.Fatal("k=0 should return nothing")
	}
}

func TestCollectionBatch(t *testing.T) {
	set, c := collectionFixture(t)
	queries := [][]float64{
		append([]float64(nil), set[0][100:200]...),
		append([]float64(nil), set[1][700:800]...),
	}
	res, err := c.SearchBatch(queries, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d result sets", len(res))
	}
	for qi, ms := range res {
		want, err := c.Search(queries[qi], 0.3)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != len(want) {
			t.Fatalf("query %d: batch %d vs direct %d", qi, len(ms), len(want))
		}
	}
	// Error propagation: a malformed query surfaces with member and
	// query context, and no partial result set is returned.
	out, err := c.SearchBatch([][]float64{queries[0], {1, 2}}, 0.3)
	if err == nil {
		t.Fatal("short query must fail")
	}
	if out != nil {
		t.Fatal("failed batch must not return partial results")
	}
	if !strings.Contains(err.Error(), "member 0") || !strings.Contains(err.Error(), "query 1") {
		t.Fatalf("error %q lacks member/query context", err)
	}
	// A NaN threshold is rejected per query, not silently matched
	// against everything (the NaN validation regression).
	if _, err := c.SearchBatch(queries, math.NaN()); err == nil {
		t.Fatal("NaN threshold must fail")
	}
}

// TestCollectionSharded lifts the sharded engine into collections: the
// option applies per member and answers match the unsharded collection.
func TestCollectionSharded(t *testing.T) {
	set := [][]float64{
		datasets.EEGN(101, 4000),
		datasets.EEGN(102, 5000),
	}
	plain, err := OpenCollection(set, Options{L: 100})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := OpenCollection(set, Options{L: 100, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sharded.Len(); i++ {
		if sharded.Engine(i).Shards() != 3 {
			t.Fatalf("member %d has %d shards", i, sharded.Engine(i).Shards())
		}
	}
	q := append([]float64(nil), set[1][2000:2100]...)
	want, err := plain.Search(q, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.Search(q, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("sharded collection: %d vs %d matches", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("match %d: %+v vs %+v", i, got[i], want[i])
		}
	}
	wantK, err := plain.SearchTopK(q, 7)
	if err != nil {
		t.Fatal(err)
	}
	gotK, err := sharded.SearchTopK(q, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantK {
		if gotK[i] != wantK[i] {
			t.Fatalf("top-k %d: %+v vs %+v", i, gotK[i], wantK[i])
		}
	}
}

func TestCollectionErrors(t *testing.T) {
	if _, err := OpenCollection(nil, Options{L: 10}); err == nil {
		t.Fatal("empty collection must fail")
	}
	if _, err := OpenCollection([][]float64{datasets.RandomWalk(1, 50)}, Options{L: 100}); err == nil {
		t.Fatal("short member must fail")
	}
	_, c := collectionFixture(t)
	if _, err := c.Search([]float64{1}, 0.1); err == nil {
		t.Fatal("bad query must fail")
	}
	if _, err := c.SearchTopK([]float64{1}, 3); err == nil {
		t.Fatal("bad top-k query must fail")
	}
}

// Regression for a closedguard finding: Collection's search methods
// reached into member engines with no closed check, so a search racing
// Close failed with whatever error the first half-closed member
// produced. They must fail up front with ErrClosed.
func TestCollectionClosed(t *testing.T) {
	set, c := collectionFixture(t)
	q := set[0][:100]
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Search(q, 0.5); !errors.Is(err, ErrClosed) {
		t.Errorf("Search after Close: %v, want ErrClosed", err)
	}
	if _, err := c.SearchTopK(q, 3); !errors.Is(err, ErrClosed) {
		t.Errorf("SearchTopK after Close: %v, want ErrClosed", err)
	}
	if _, err := c.SearchBatch([][]float64{q}, 0.5); !errors.Is(err, ErrClosed) {
		t.Errorf("SearchBatch after Close: %v, want ErrClosed", err)
	}
}

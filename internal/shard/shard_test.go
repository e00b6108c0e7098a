package shard

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"twinsearch/internal/core"
	"twinsearch/internal/exec"
	"twinsearch/internal/oracle"
	"twinsearch/internal/series"
)

func synthetic(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	phase := rng.Float64()
	for i := range out {
		out[i] = math.Sin(float64(i)/9+phase) + 0.3*math.Sin(float64(i)/41) + 0.15*rng.NormFloat64()
	}
	return out
}

var allModes = []series.NormMode{series.NormNone, series.NormGlobal, series.NormPerSubsequence}

func matchStarts(ms []series.Match) []int {
	out := make([]int, len(ms))
	for i, m := range ms {
		out[i] = m.Start
	}
	return out
}

func equalMatches(a, b []series.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestParityWithSingleIndex asserts that, for every normalization mode
// and shard count — one shard, the single index, included — the
// sharded index answers Search, SearchStats, and SearchTopK as the
// oracle does over the whole series.
func TestParityWithSingleIndex(t *testing.T) {
	const l = 32
	data := synthetic(2000, 1)
	for _, mode := range allModes {
		ext := series.NewExtractor(data, mode)
		queries := [][]float64{
			ext.ExtractCopy(137, l),
			ext.ExtractCopy(900, l),
			ext.ExtractCopy(len(data)-l, l),
		}
		for _, p := range []int{1, 2, 3, 7} {
			sh, err := Build(ext, Config{Config: core.Config{L: l}, Shards: p})
			if err != nil {
				t.Fatal(err)
			}
			if err := sh.CheckInvariants(); err != nil {
				t.Fatalf("mode=%v shards=%d: %v", mode, p, err)
			}
			if sh.NumShards() != p {
				t.Fatalf("built %d shards, want %d", sh.NumShards(), p)
			}
			for qi, q := range queries {
				for _, eps := range []float64{0, 0.05, 0.3, 1.5} {
					want := oracle.Range(ext, q, eps)
					got, st := sh.SearchStats(q, eps)
					if !equalMatches(got, want) {
						t.Fatalf("mode=%v shards=%d q=%d eps=%g: got %v want %v",
							mode, p, qi, eps, matchStarts(got), matchStarts(want))
					}
					if st.Results != len(want) {
						t.Fatalf("stats.Results=%d, %d matches", st.Results, len(want))
					}
				}
				for _, k := range []int{1, 5, 40} {
					want := oracle.TopK(ext, q, k)
					got := sh.SearchTopK(q, k)
					if !equalMatches(got, want) {
						t.Fatalf("mode=%v shards=%d q=%d k=%d: topk got %v want %v",
							mode, p, qi, k, got, want)
					}
				}
			}
		}
	}
}

// TestPrefixParity asserts sharded prefix search (shorter queries)
// agrees with the single index, including the tail windows.
func TestPrefixParity(t *testing.T) {
	const l = 48
	data := synthetic(1200, 3)
	for _, mode := range []series.NormMode{series.NormNone, series.NormGlobal} {
		ext := series.NewExtractor(data, mode)
		sh, err := Build(ext, Config{Config: core.Config{L: l}, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, pl := range []int{8, 20, l} {
			q := ext.ExtractCopy(len(data)-pl, pl)
			want := oracle.Range(ext, q, 0.2)
			got, err := sh.SearchPrefix(q, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			if !equalMatches(got, want) {
				t.Fatalf("mode=%v prefix l=%d: got %v want %v", mode, pl, matchStarts(got), matchStarts(want))
			}
		}
	}
	// Per-subsequence mode must be rejected, matching the single index.
	ext := series.NewExtractor(data, series.NormPerSubsequence)
	sh, err := Build(ext, Config{Config: core.Config{L: l}, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.SearchPrefix(make([]float64, 10), 0.2); err == nil {
		t.Fatal("expected prefix search rejection under per-subsequence normalization")
	}
}

// TestApproxIsSubset checks the sharded approximate search returns a
// subset of the exact result set and respects the leaf budget.
func TestApproxIsSubset(t *testing.T) {
	const l = 32
	data := synthetic(3000, 5)
	ext := series.NewExtractor(data, series.NormGlobal)
	sh, err := Build(ext, Config{Config: core.Config{L: l}, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := ext.ExtractCopy(500, l)
	exact := sh.Search(q, 0.3)
	inExact := map[int]bool{}
	for _, m := range exact {
		inExact[m.Start] = true
	}
	for _, budget := range []int{1, 2, 8, 100} {
		got, st := sh.SearchApprox(q, 0.3, budget)
		if st.LeavesReached > budget {
			t.Fatalf("budget %d: probed %d leaves", budget, st.LeavesReached)
		}
		for _, m := range got {
			if !inExact[m.Start] {
				t.Fatalf("budget %d: approximate match %d not in exact set", budget, m.Start)
			}
		}
	}
}

// TestInsertRouting appends trailing windows and inserts into interior
// shards, then checks searches still agree with a fresh single index.
func TestInsertRouting(t *testing.T) {
	const l = 16
	data := synthetic(400, 7)
	ext := series.NewExtractor(data, series.NormNone)
	sh, err := Build(ext, Config{Config: core.Config{L: l}, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	before := sh.Windows()
	ext.Append(synthetic(60, 8)...)
	for p := before; p+l <= ext.Len(); p++ {
		sh.Insert(p)
	}
	if err := sh.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	q := ext.ExtractCopy(ext.Len()-l, l)
	want := oracle.Range(ext, q, 0.25)
	got := sh.Search(q, 0.25)
	if !equalMatches(got, want) {
		t.Fatalf("after append: got %v want %v", matchStarts(got), matchStarts(want))
	}
}

// TestPersistRoundTrip saves and reloads a sharded index and checks the
// reloaded copy answers identically.
func TestPersistRoundTrip(t *testing.T) {
	const l = 24
	data := synthetic(1500, 11)
	for _, mode := range allModes {
		ext := series.NewExtractor(data, mode)
		sh, err := Build(ext, Config{Config: core.Config{L: l}, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		var blob bytes.Buffer
		n, err := sh.WriteTo(&blob)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(blob.Len()) {
			t.Fatalf("WriteTo reported %d bytes, wrote %d", n, blob.Len())
		}
		re, err := Load(bytes.NewReader(blob.Bytes()), ext, nil)
		if err != nil {
			t.Fatal(err)
		}
		if re.NumShards() != sh.NumShards() || re.Windows() != sh.Windows() || re.L() != sh.L() {
			t.Fatalf("reloaded shape mismatch: %d/%d/%d vs %d/%d/%d",
				re.NumShards(), re.Windows(), re.L(), sh.NumShards(), sh.Windows(), sh.L())
		}
		q := ext.ExtractCopy(700, l)
		if !equalMatches(re.Search(q, 0.3), sh.Search(q, 0.3)) {
			t.Fatalf("mode=%v: reloaded index answers differently", mode)
		}
		if !equalMatches(re.SearchTopK(q, 9), sh.SearchTopK(q, 9)) {
			t.Fatalf("mode=%v: reloaded top-k differs", mode)
		}
	}
}

// TestPersistRejectsMismatch checks corrupted or mismatched streams are
// rejected rather than silently misloaded.
func TestPersistRejectsMismatch(t *testing.T) {
	const l = 24
	data := synthetic(800, 13)
	ext := series.NewExtractor(data, series.NormGlobal)
	sh, err := Build(ext, Config{Config: core.Config{L: l}, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if _, err := sh.WriteTo(&blob); err != nil {
		t.Fatal(err)
	}

	if _, err := Load(bytes.NewReader([]byte("JUNKJUNKJUNK")), ext, nil); err == nil {
		t.Fatal("expected bad-magic rejection")
	}
	truncated := blob.Bytes()[:blob.Len()/2]
	if _, err := Load(bytes.NewReader(truncated), ext, nil); err == nil {
		t.Fatal("expected truncated-stream rejection")
	}
	otherExt := series.NewExtractor(synthetic(800, 99), series.NormGlobal)
	if _, err := Load(bytes.NewReader(blob.Bytes()), otherExt, nil); err == nil {
		t.Fatal("expected wrong-series rejection")
	}
	shorterExt := series.NewExtractor(data[:700], series.NormGlobal)
	if _, err := Load(bytes.NewReader(blob.Bytes()), shorterExt, nil); err == nil {
		t.Fatal("expected wrong-length rejection")
	}
}

// TestBuildErrors covers the constructor's validation paths.
func TestBuildErrors(t *testing.T) {
	ext := series.NewExtractor(synthetic(100, 17), series.NormNone)
	if _, err := Build(ext, Config{Config: core.Config{L: 0}}); err == nil {
		t.Fatal("expected invalid-L rejection")
	}
	if _, err := Build(ext, Config{Config: core.Config{L: 200}}); err == nil {
		t.Fatal("expected short-series rejection")
	}
	// More shards than windows must clamp, not fail.
	sh, err := Build(ext, Config{Config: core.Config{L: 99}, Shards: 64})
	if err != nil {
		t.Fatal(err)
	}
	if sh.NumShards() != 2 { // 100-99+1 = 2 windows
		t.Fatalf("got %d shards for 2 windows", sh.NumShards())
	}
}

// TestConcurrentBuildAndSearch exercises concurrent sharded builds and
// concurrent searches over one sharded index; run under -race this
// guards the fan-out paths.
func TestConcurrentBuildAndSearch(t *testing.T) {
	const l = 32
	data := synthetic(2500, 19)
	ext := series.NewExtractor(data, series.NormGlobal)

	type res struct {
		sh  *Index
		err error
	}
	results := make(chan res, 4)
	for i := 0; i < 4; i++ {
		go func() {
			sh, err := Build(ext, Config{Config: core.Config{L: l}, Shards: 4})
			results <- res{sh, err}
		}()
	}
	var sh *Index
	for i := 0; i < 4; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		sh = r.sh
	}

	done := make(chan []series.Match, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			q := ext.ExtractCopy(i*250, l)
			if i%2 == 0 {
				done <- sh.Search(q, 0.3)
			} else {
				done <- sh.SearchTopK(q, 10)
			}
		}(i)
	}
	for i := 0; i < 8; i++ {
		if ms := <-done; len(ms) == 0 {
			t.Fatal("concurrent search returned nothing (every query has at least its own window)")
		}
	}

	q := ext.ExtractCopy(1000, l)
	if !equalMatches(sh.Search(q, 0.3), oracle.Range(ext, q, 0.3)) {
		t.Fatal("concurrently built shard index disagrees with single index")
	}
}

// TestSkewedBoundariesParity builds deliberately imbalanced partitions
// (the last shard holding ~90% of the windows) and asserts every query
// kind still answers identically to a single index, across executors
// of different widths — the work-stealing property under test is that
// partition skew may move work between workers but never changes an
// answer.
func TestSkewedBoundariesParity(t *testing.T) {
	const l = 32
	data := synthetic(2400, 23)
	for _, mode := range allModes {
		ext := series.NewExtractor(data, mode)
		count := series.NumSubsequences(len(data), l)
		head := count / 10
		bounds := []int{0, head / 3, 2 * head / 3, head, count}
		queries := [][]float64{
			ext.ExtractCopy(100, l),
			ext.ExtractCopy(count-1, l), // deep inside the hot shard
		}
		for _, workers := range []int{1, 3, 8} {
			sh, err := Build(ext, Config{
				Config: core.Config{L: l}, Boundaries: bounds,
				Executor: exec.New(workers),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := sh.CheckInvariants(); err != nil {
				t.Fatalf("mode=%v workers=%d: %v", mode, workers, err)
			}
			for qi, q := range queries {
				for _, eps := range []float64{0.05, 0.4} {
					want := oracle.Range(ext, q, eps)
					got, st := sh.SearchStats(q, eps)
					if !equalMatches(got, want) {
						t.Fatalf("mode=%v workers=%d q=%d eps=%g: got %v want %v",
							mode, workers, qi, eps, matchStarts(got), matchStarts(want))
					}
					if st.Results != len(want) {
						t.Fatalf("stats.Results=%d, %d matches", st.Results, len(want))
					}
				}
				for _, k := range []int{1, 12, 60} {
					want := oracle.TopK(ext, q, k)
					got := sh.SearchTopK(q, k)
					if !equalMatches(got, want) {
						t.Fatalf("mode=%v workers=%d q=%d k=%d: topk differs", mode, workers, qi, k)
					}
				}
				if mode != series.NormPerSubsequence {
					want := oracle.Range(ext, q[:l/2], 0.3)
					got, err := sh.SearchPrefix(q[:l/2], 0.3)
					if err != nil {
						t.Fatal(err)
					}
					if !equalMatches(got, want) {
						t.Fatalf("mode=%v workers=%d q=%d: prefix differs", mode, workers, qi)
					}
				}
			}
		}
	}
}

// TestBoundariesValidation covers the explicit-partition error paths.
func TestBoundariesValidation(t *testing.T) {
	const l = 16
	data := synthetic(300, 29)
	ext := series.NewExtractor(data, series.NormNone)
	count := series.NumSubsequences(len(data), l)
	cases := []struct {
		name   string
		shards int
		b      []int
	}{
		{"too short", 0, []int{0}},
		{"shards mismatch", 3, []int{0, count / 2, count}},
		{"not starting at zero", 0, []int{1, count}},
		{"not ending at count", 0, []int{0, count - 1}},
		{"empty range", 0, []int{0, 10, 10, count}},
		{"decreasing", 0, []int{0, 40, 20, count}},
	}
	for _, tc := range cases {
		_, err := Build(ext, Config{Config: core.Config{L: l}, Shards: tc.shards, Boundaries: tc.b})
		if err == nil {
			t.Fatalf("%s: boundaries %v accepted", tc.name, tc.b)
		}
	}
	// A valid explicit partition builds, with Shards agreeing or unset.
	for _, shards := range []int{0, 2} {
		sh, err := Build(ext, Config{Config: core.Config{L: l}, Shards: shards, Boundaries: []int{0, count / 4, count}})
		if err != nil {
			t.Fatal(err)
		}
		if sh.NumShards() != 2 {
			t.Fatalf("built %d shards from explicit boundaries", sh.NumShards())
		}
		if err := sh.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSkewedConcurrentSearch hammers a skewed index from many
// goroutines; under -race this guards the executor's whole fan-out
// surface including frontier caching.
func TestSkewedConcurrentSearch(t *testing.T) {
	const l = 32
	data := synthetic(3000, 31)
	ext := series.NewExtractor(data, series.NormGlobal)
	count := series.NumSubsequences(len(data), l)
	head := count / 10
	sh, err := Build(ext, Config{
		Config: core.Config{L: l}, Boundaries: []int{0, head, count},
		Executor: exec.New(4),
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 12)
	for g := 0; g < 12; g++ {
		go func(g int) {
			q := ext.ExtractCopy((g*251)%(count-1), l)
			switch g % 3 {
			case 0:
				want := oracle.Range(ext, q, 0.3)
				if got := sh.Search(q, 0.3); !equalMatches(got, want) {
					done <- fmt.Errorf("goroutine %d: search differs", g)
					return
				}
			case 1:
				if got, want := sh.SearchTopK(q, 8), oracle.TopK(ext, q, 8); !equalMatches(got, want) {
					done <- fmt.Errorf("goroutine %d: topk differs", g)
					return
				}
			default:
				ms, st := sh.SearchApprox(q, 0.3, 6)
				if st.LeavesReached > 6 {
					done <- fmt.Errorf("goroutine %d: approx probed %d leaves", g, st.LeavesReached)
					return
				}
				exact := map[int]bool{}
				for _, m := range oracle.Range(ext, q, 0.3) {
					exact[m.Start] = true
				}
				for _, m := range ms {
					if !exact[m.Start] {
						done <- fmt.Errorf("goroutine %d: approx hit %d not exact", g, m.Start)
						return
					}
				}
			}
			done <- nil
		}(g)
	}
	for i := 0; i < 12; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

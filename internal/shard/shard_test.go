package shard

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"twinsearch/internal/arena"
	"twinsearch/internal/core"
	"twinsearch/internal/datasets"
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

// TestTailAndCompaction grows the series under a three-shard index:
// the windows gained are a tail every path scans, so each answer is the
// definition's over the grown series, and past the compaction bound the
// tail becomes the rebuilt last shard — the arena a build over the
// grown series with the last boundary moved gives, byte for byte.
func TestTailAndCompaction(t *testing.T) {
	const l = 16
	data := synthetic(400, 7)
	ext := series.NewExtractor(data, series.NormNone)
	sh, err := Build(ext, Config{Config: core.Config{L: l}, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	check := func(at string) {
		t.Helper()
		if err := sh.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		if got, want := sh.Windows(), series.NumSubsequences(ext.Len(), l); got != want {
			t.Fatalf("%s: %d windows, series has %d", at, got, want)
		}
		for _, p := range []int{3, ext.Len() - l} {
			q := ext.ExtractCopy(p, l)
			want := oracle.Range(ext, q, 0.25)
			ms, st := sh.SearchStats(q, 0.25)
			if !sameMatches(ms, want) || st.Results != len(ms) || st.Abandons != st.Candidates-st.Results {
				t.Fatalf("%s: range %v %+v, want %v", at, matchStarts(ms), st, matchStarts(want))
			}
			if got := sh.SearchTopK(q, 7); !sameMatches(got, oracle.TopK(ext, q, 7)) {
				t.Fatalf("%s: top-k %v", at, got)
			}
			if got := sh.Search(q[:l/2], 0.25); !sameMatches(got, oracle.Range(ext, q[:l/2], 0.25)) {
				t.Fatalf("%s: prefix %v", at, matchStarts(got))
			}
		}
	}
	check("built")
	ext.Append(synthetic(60, 8)...)
	if err := sh.Extend(); err != nil {
		t.Fatal(err)
	}
	if sh.TailWindows() != 60 {
		t.Fatalf("tail holds %d windows after a 60-value append", sh.TailWindows())
	}
	check("60 appended")

	lo, _ := sh.Range(2)
	ext.Append(synthetic(minCompact, 9)...)
	if err := sh.Extend(); err != nil {
		t.Fatal(err)
	}
	if sh.TailWindows() != 0 {
		t.Fatalf("tail holds %d windows past the compaction bound", sh.TailWindows())
	}
	count := series.NumSubsequences(ext.Len(), l)
	if glo, ghi := sh.Range(2); glo != lo || ghi != count {
		t.Fatalf("last shard spans [%d, %d) after compaction, want [%d, %d)", glo, ghi, lo, count)
	}
	check("compacted")
	b := sh.base.Load()
	rebuilt, err := Build(ext, Config{Config: core.Config{L: l}, Boundaries: b.starts})
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if _, err := sh.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if _, err := rebuilt.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("the compacted index is not a build over the grown series")
	}
}

// TestCompactDuringSearches publishes a grown window count and a
// compaction while searches run. Each query loads one base and one
// count, so every answer is the definition's over the series before
// the growth or over the grown one — the old base alone, the old base
// and its tail, or the new base — and once a client has seen the grown
// answer it never sees the old one again. Run it under -race.
func TestCompactDuringSearches(t *testing.T) {
	const l = 24
	ext := series.NewExtractor(synthetic(1200, 3), series.NormGlobal)
	sh, err := Build(ext, Config{Config: core.Config{L: l}, Shards: 2, Executor: exec.New(2)})
	if err != nil {
		t.Fatal(err)
	}
	// The query's own window is appended, so the grown answers differ.
	q := ext.ExtractCopy(500, l)
	oldRange, oldTop := oracle.Range(ext, q, 0.4), oracle.TopK(ext, q, 6)
	ext.Append(synthetic(minCompact, 4)...)
	ext.Append(q...)
	newRange, newTop := oracle.Range(ext, q, 0.4), oracle.TopK(ext, q, 6)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var grown [2]bool // range, top-k
			for i := 0; i < 60; i++ {
				kind := i % 2
				var got, old, grownAns []series.Match
				if kind == 0 {
					got, old, grownAns = sh.Search(q, 0.4), oldRange, newRange
				} else {
					got, old, grownAns = sh.SearchTopK(q, 6), oldTop, newTop
				}
				switch {
				case sameMatches(got, grownAns):
					grown[kind] = true
				case grown[kind] || !sameMatches(got, old):
					t.Errorf("query %d (after a grown answer: %v): %v", i, grown[kind], got)
					return
				}
			}
		}()
	}
	if err := sh.Extend(); err != nil {
		t.Error(err)
	}
	wg.Wait()
	if sh.TailWindows() != 0 {
		t.Fatalf("tail holds %d windows past the compaction bound", sh.TailWindows())
	}
}

// TestPersistRoundTrip saves and reloads a sharded index and checks the
// reloaded copy answers identically — as built, and after an append left
// a tail (WriteTo must compact first).
func TestPersistRoundTrip(t *testing.T) {
	const l = 24
	data := synthetic(1500, 11)
	for _, state := range []string{"clean", "dirty"} {
		t.Run(state, func(t *testing.T) {
			for _, mode := range allModes {
				t.Run(mode.String(), func(t *testing.T) {
					ext := series.NewExtractor(slices.Clone(data), mode)
					sh, err := Build(ext, Config{Config: core.Config{L: l}, Shards: 4})
					if err != nil {
						t.Fatal(err)
					}
					if state == "dirty" {
						// Grow the series: its new windows are a tail, which
						// WriteTo must compact into the last shard first.
						ext.Append(1.5, -0.25, 0.75)
						if err := sh.Extend(); err != nil || sh.TailWindows() != 3 {
							t.Fatalf("Extend: %v, tail %d", err, sh.TailWindows())
						}
					}
					var blob bytes.Buffer
					n, err := sh.WriteTo(&blob)
					if err != nil {
						t.Fatal(err)
					}
					if n != int64(blob.Len()) {
						t.Fatalf("WriteTo reported %d bytes, wrote %d", n, blob.Len())
					}
					re, err := OpenArena(arena.FromBytes(blob.Bytes()), ext, nil)
					if err != nil {
						t.Fatal(err)
					}
					if err := re.CheckInvariants(); err != nil {
						t.Fatal(err)
					}
					if re.NumShards() != sh.NumShards() || re.Windows() != sh.Windows() || re.L() != sh.L() {
						t.Fatalf("reloaded shape mismatch: %d/%d/%d vs %d/%d/%d",
							re.NumShards(), re.Windows(), re.L(), sh.NumShards(), sh.Windows(), sh.L())
					}
					q := ext.ExtractCopy(700, l)
					if !sameMatches(re.Search(q, 0.3), sh.Search(q, 0.3)) {
						t.Fatal("reloaded index answers differently")
					}
					if !sameMatches(re.SearchTopK(q, 9), sh.SearchTopK(q, 9)) {
						t.Fatal("reloaded top-k differs")
					}
				})
			}
		})
	}
}

// TestPersistRejectsMismatch checks a heap open rejects corrupted or
// mismatched streams rather than silently misloading them.
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

	if _, err := OpenArena(arena.FromBytes([]byte("JUNKJUNKJUNK")), ext, nil); err == nil {
		t.Fatal("expected bad-magic rejection")
	}
	truncated := blob.Bytes()[:blob.Len()/2]
	if _, err := OpenArena(arena.FromBytes(truncated), ext, nil); err == nil {
		t.Fatal("expected truncated-stream rejection")
	}
	otherExt := series.NewExtractor(synthetic(800, 99), series.NormGlobal)
	if _, err := OpenArena(arena.FromBytes(blob.Bytes()), otherExt, nil); err == nil {
		t.Fatal("expected wrong-series rejection")
	}
	shorterExt := series.NewExtractor(data[:700], series.NormGlobal)
	if _, err := OpenArena(arena.FromBytes(blob.Bytes()), shorterExt, nil); err == nil {
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
	if !sameMatches(sh.Search(q, 0.3), oracle.Range(ext, q, 0.3)) {
		t.Fatal("concurrently built shard index disagrees with single index")
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
// surface.
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
				if got := sh.Search(q, 0.3); !sameMatches(got, want) {
					done <- fmt.Errorf("goroutine %d: search differs", g)
					return
				}
			case 1:
				if got, want := sh.SearchTopK(q, 8), oracle.TopK(ext, q, 8); !sameMatches(got, want) {
					done <- fmt.Errorf("goroutine %d: topk differs", g)
					return
				}
			default:
				got := sh.Search(q[:l/2], 0.3)
				if want := oracle.Range(ext, q[:l/2], 0.3); !sameMatches(got, want) {
					done <- fmt.Errorf("goroutine %d: prefix differs", g)
					return
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

// TestCountersIndependentOfWorkers holds the shard RPC contract's replica
// clause against the executor's width: the same four-shard index on 1,
// 2 and 64 workers reports the same range counters for every query,
// because each shard is traversed whole, from its root, however many
// workers run the units.
func TestCountersIndependentOfWorkers(t *testing.T) {
	const l = 100
	data := datasets.EEGN(1, 40000)
	ext := series.NewExtractor(data, series.NormGlobal)
	var ixs []*Index
	for _, w := range []int{1, 2, 64} {
		ix, err := Build(ext, Config{Config: core.Config{L: l}, Shards: 4, Executor: exec.New(w)})
		if err != nil {
			t.Fatal(err)
		}
		ixs = append(ixs, ix)
	}
	for _, start := range []int{17, 1234, 20000, 39000} {
		q := ext.ExtractCopy(start, l)
		for _, eps := range []float64{0.2, 0.5, 1.0} {
			want, wst, err := ixs[0].SearchStatsCtx(nil, q, eps)
			if err != nil {
				t.Fatal(err)
			}
			for i, ix := range ixs[1:] {
				got, st, err := ix.SearchStatsCtx(nil, q, eps)
				if err != nil || !sameMatches(got, want) || st != wst {
					t.Fatalf("q@%d eps=%g: %d matches %+v on index %d, %d matches %+v on one worker (%v)",
						start, eps, len(got), st, i+1, len(want), wst, err)
				}
			}
		}
	}
}

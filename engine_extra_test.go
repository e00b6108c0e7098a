package twinsearch

import (
	"bytes"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"twinsearch/internal/datasets"
)

func TestSaveIndexFileRoundTrip(t *testing.T) {
	ts := datasets.RandomWalk(5, 3000)
	eng, err := Open(ts, Options{L: 50, Norm: NormPerSubsequence, NormSet: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.tsix")
	if err := eng.SaveIndexFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := OpenSavedFile(ts, path, Options{L: 50, Norm: NormPerSubsequence, NormSet: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.NumSubsequences() != eng.NumSubsequences() {
		t.Fatal("window count differs after reload")
	}
}

func TestSaveErrors(t *testing.T) {
	ts := datasets.RandomWalk(1, 1000)
	eng, _ := Open(ts, Options{L: 50})
	var buf bytes.Buffer
	if err := eng.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	// Wrong L in options.
	if _, err := OpenSaved(ts, bytes.NewReader(buf.Bytes()), Options{L: 60}); err == nil {
		t.Fatal("want L mismatch error")
	}
	// A series the index cannot have been built over: Open's own check.
	if _, err := OpenSaved(ts[:40], bytes.NewReader(buf.Bytes()), Options{L: 50}); err == nil || err.Error() != "twinsearch: series length 40 shorter than L=50" {
		t.Fatalf("short series: error %v", err)
	}
	if _, err := OpenSavedFile(ts, filepath.Join(t.TempDir(), "missing"), Options{L: 50}); err == nil {
		t.Fatal("want error for missing file")
	}
}

func TestAppendGlobalFrozenBasis(t *testing.T) {
	// Under NormGlobal the appended region is normalized with the frozen
	// basis, so results must match a scan over the SAME extractor —
	// not necessarily a fresh rebuild (whose basis would shift).
	full := datasets.RandomWalk(78, 3000)
	eng, err := Open(append([]float64(nil), full[:2500]...), Options{L: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Append(full[2500:]...); err != nil {
		t.Fatal(err)
	}
	if eng.SeriesLen() != 3000 {
		t.Fatalf("SeriesLen = %d", eng.SeriesLen())
	}
	q := append([]float64(nil), full[2700:2800]...)
	ms, err := eng.Search(q, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleRange(eng, q, 0.1); !slices.Equal(ms, want) || !slices.Contains(ms, Match{Start: 2700, Dist: -1}) {
		t.Fatalf("query over the appended region: %v, oracle %v", ms, want)
	}
}

func TestAppendErrorsAndNoop(t *testing.T) {
	ts := datasets.RandomWalk(1, 1000)
	// (The one engine that refuses Append outright is the read-only
	// cluster coordinator: TestClusterEngineLocal.)
	eng, _ := Open(ts, Options{L: 50})
	if err := eng.Append(); err != nil {
		t.Fatalf("empty append should be a no-op: %v", err)
	}
}

// TestAppendRejectsNonFinite: Open refuses NaN/±Inf because a NaN window
// matches every query; Append must refuse them for the same reason, and
// refuse the whole call — the finite values beside the bad one are not
// ingested, the epoch does not move, no answer changes.
func TestAppendRejectsNonFinite(t *testing.T) {
	ts := datasets.RandomWalk(5, 1500)
	const l = 50
	q := append([]float64(nil), ts[700:700+l]...)
	for _, shards := range []int{0, 4} {
		eng, err := Open(append([]float64(nil), ts...), Options{L: l, Shards: shards, ResultCacheBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.Search(q, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		var saved bytes.Buffer
		if err := eng.SaveIndex(&saved); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			bad  float64
			text string
		}{
			{math.NaN(), "twinsearch: non-finite appended value NaN at position 2; clean or impute missing samples first"},
			{math.Inf(1), "twinsearch: non-finite appended value +Inf at position 2; clean or impute missing samples first"},
			{math.Inf(-1), "twinsearch: non-finite appended value -Inf at position 2; clean or impute missing samples first"},
		} {
			if err := eng.Append(0.5, -0.5, c.bad, 0.25); err == nil || err.Error() != c.text {
				t.Fatalf("shards=%d: Append(%v) error %v, want %q", shards, c.bad, err, c.text)
			}
		}
		if eng.SeriesLen() != len(ts) || eng.Epoch() != 0 || eng.NumSubsequences() != len(ts)-l+1 {
			t.Fatalf("shards=%d: refused appends left series length %d, epoch %d", shards, eng.SeriesLen(), eng.Epoch())
		}
		got, err := eng.Search(q, 0.4)
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("shards=%d: answer changed after refused appends: %d matches (%v), want %d", shards, len(got), err, len(want))
		}
		var after bytes.Buffer
		if err := eng.SaveIndex(&after); err != nil || !bytes.Equal(saved.Bytes(), after.Bytes()) {
			t.Fatalf("shards=%d: index changed after refused appends (%v)", shards, err)
		}
		// The engine is not wedged: a clean append still lands.
		if err := eng.Append(q...); err != nil || eng.SeriesLen() != len(ts)+l || eng.Epoch() != 1 {
			t.Fatalf("shards=%d: clean append after refusals: %v, length %d, epoch %d", shards, err, eng.SeriesLen(), eng.Epoch())
		}
		eng.Close()
	}
}

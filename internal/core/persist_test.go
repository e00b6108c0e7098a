package core

import (
	"bytes"
	"slices"
	"testing"

	"twinsearch/internal/datasets"
	"twinsearch/internal/oracle"
	"twinsearch/internal/series"
)

func TestPersistRoundTrip(t *testing.T) {
	for _, mode := range []series.NormMode{series.NormNone, series.NormGlobal, series.NormPerSubsequence} {
		ts := datasets.InsectN(31, 5000)
		ix, ext := buildOver(t, ts, mode, Config{L: 80})

		var buf bytes.Buffer
		n, err := ix.WriteTo(&buf)
		if err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
		}

		got, err := Load(&buf, ext)
		if err != nil {
			t.Fatalf("Load: %v", err)
		}
		if got.Len() != ix.Len() || got.Height() != ix.Height() || got.L() != ix.L() {
			t.Fatalf("metadata mismatch after round trip")
		}
		q := ext.ExtractCopy(777, 80)
		for _, eps := range []float64{0.1, 0.5, 2} {
			a := oracle.Range(ext, q, eps)
			b := got.Freeze().Search(q, eps)
			if !slices.Equal(a, b) {
				t.Fatalf("mode=%v eps=%v: %d vs %d results", mode, eps, len(a), len(b))
			}
		}
	}
}

func TestPersistEmptyIndex(t *testing.T) {
	ext := series.NewExtractor(datasets.RandomWalk(1, 100), series.NormGlobal)
	ix, err := NewEmpty(ext, Config{L: 20})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf, ext)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.Freeze().Search(make([]float64, 20), 1) != nil {
		t.Fatal("empty index did not survive round trip")
	}
}

func TestLoadRejectsWrongMode(t *testing.T) {
	ts := datasets.RandomWalk(2, 1000)
	ix, _ := buildOver(t, ts, series.NormGlobal, Config{L: 50})
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	wrong := series.NewExtractor(ts, series.NormNone)
	if _, err := Load(&buf, wrong); err == nil {
		t.Fatal("want mode-mismatch error")
	}
}

func TestLoadRejectsWrongSeries(t *testing.T) {
	ts := datasets.RandomWalk(2, 1000)
	ix, _ := buildOver(t, ts, series.NormGlobal, Config{L: 50})

	// Different length: rejected by the header check.
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	short := series.NewExtractor(ts[:900], series.NormGlobal)
	if _, err := Load(&buf, short); err == nil {
		t.Fatal("want length-mismatch error")
	}

	// Same length, different values: rejected by the invariant check
	// (the recorded MBTS no longer enclose the windows).
	buf.Reset()
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	other := series.NewExtractor(datasets.RandomWalk(99, 1000), series.NormGlobal)
	if _, err := Load(&buf, other); err == nil {
		t.Fatal("want invariant error for mismatched data")
	}
}

func TestLoadRejectsCorruptStreams(t *testing.T) {
	ts := datasets.RandomWalk(3, 800)
	ix, ext := buildOver(t, ts, series.NormGlobal, Config{L: 40})
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("NOPE"), full[4:]...),
		"truncated": full[:len(full)/2],
		"bad version": func() []byte {
			c := append([]byte(nil), full...)
			c[4] = 0xFF
			return c
		}(),
	}
	for name, stream := range cases {
		if _, err := Load(bytes.NewReader(stream), ext); err == nil {
			t.Fatalf("%s: want error", name)
		}
	}
}

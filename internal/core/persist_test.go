package core

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"twinsearch/internal/arena"
	"twinsearch/internal/datasets"
	"twinsearch/internal/oracle"
	"twinsearch/internal/series"
)

// loaders are the two kinds of arena a saved stream comes back in: the
// heap, verified in full, and a file mapping, whose headers and
// structure are.
var loaders = map[string]func(t *testing.T, stream []byte, ext *series.Extractor) (*Frozen, error){
	"heap": func(t *testing.T, stream []byte, ext *series.Extractor) (*Frozen, error) {
		f, _, err := OpenFrozen(arena.FromBytes(stream), 0, ext, nil)
		return f, err
	},
	"mapped": func(t *testing.T, stream []byte, ext *series.Extractor) (*Frozen, error) {
		f, _, err := OpenFrozen(mapStream(t, stream), 0, ext, nil)
		return f, err
	},
}

// mapStream writes stream to a temporary file and opens it as a mapped
// arena (a heap one where the file cannot be mapped) that lives until
// the test ends.
func mapStream(t testing.TB, stream []byte) *arena.Arena {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stream")
	if err := os.WriteFile(path, stream, 0o644); err != nil {
		t.Fatal(err)
	}
	ar, err := arena.Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ar.Close() })
	return ar
}

// savedOver builds, freezes and saves an index over ts.
func savedOver(t *testing.T, ts []float64, mode series.NormMode, cfg Config) ([]byte, *series.Extractor) {
	t.Helper()
	fz, ext := frozenOver(t, ts, mode, cfg)
	var buf bytes.Buffer
	if _, err := fz.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes(), ext
}

// TestPersistRoundTrip holds a reloaded index to the definition, not to
// the index it was saved from: every normalization, both arena kinds.
func TestPersistRoundTrip(t *testing.T) {
	for _, mode := range []series.NormMode{series.NormNone, series.NormGlobal, series.NormPerSubsequence} {
		stream, ext := savedOver(t, datasets.InsectN(31, 5000), mode, Config{L: 80})
		q := ext.ExtractCopy(777, 80)
		for name, load := range loaders {
			got, err := load(t, stream, ext)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, eps := range []float64{0.1, 0.5, 2} {
				if a, b := oracle.Range(ext, q, eps), got.Search(q, eps); !slices.Equal(a, b) {
					t.Fatalf("%s mode=%v eps=%v: oracle %d results, reloaded %d", name, mode, eps, len(a), len(b))
				}
			}
		}
	}
}

func TestPersistEmptyIndex(t *testing.T) {
	ext := series.NewExtractor(datasets.RandomWalk(1, 100), series.NormGlobal)
	var buf bytes.Buffer
	if _, err := grow(t, ext, Config{L: 20}, 0, 0).freeze().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for name, load := range loaders {
		got, err := load(t, buf.Bytes(), ext)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Len() != 0 || got.Search(make([]float64, 20), 1) != nil {
			t.Fatalf("%s: empty index did not survive round trip", name)
		}
	}
}

func TestLoadRejectsWrongMode(t *testing.T) {
	ts := datasets.RandomWalk(2, 1000)
	stream, _ := savedOver(t, ts, series.NormGlobal, Config{L: 50})
	wrong := series.NewExtractor(ts, series.NormNone)
	for name, load := range loaders {
		if _, err := load(t, stream, wrong); err == nil {
			t.Fatalf("%s: want mode-mismatch error", name)
		}
	}
}

func TestLoadRejectsWrongSeries(t *testing.T) {
	ts := datasets.RandomWalk(2, 1000)
	stream, _ := savedOver(t, ts, series.NormGlobal, Config{L: 50})

	// Different length: rejected by the header check, on both paths.
	short := series.NewExtractor(ts[:900], series.NormGlobal)
	for name, load := range loaders {
		if _, err := load(t, stream, short); err == nil {
			t.Fatalf("%s: want length-mismatch error", name)
		}
	}

	// Same length, different values: the recorded MBTS no longer enclose
	// the windows. Only a heap open walks the bounds (the mapped open
	// validates structure alone — see Frozen.CheckStructure).
	other := series.NewExtractor(datasets.RandomWalk(99, 1000), series.NormGlobal)
	if _, err := loaders["heap"](t, stream, other); err == nil {
		t.Fatal("want invariant error for mismatched data")
	}
}

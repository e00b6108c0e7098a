package twinsearch

import (
	"bytes"
	"testing"

	"twinsearch/internal/datasets"
)

// TestEnginePartitionByMean checks the Options knob end to end:
// identical answers to an unsharded engine and the scheme surviving a
// save/reload cycle (mean-routed insertion is covered at the shard
// layer).
func TestEnginePartitionByMean(t *testing.T) {
	data := datasets.RandomWalk(62, 1600)
	const l = 40
	ref, err := Open(data, Options{L: l})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := Open(data, Options{L: l, Shards: 3, PartitionByMean: true})
	if err != nil {
		t.Fatal(err)
	}
	if !eng.PartitionByMean() || eng.Shards() != 3 {
		t.Fatalf("engine reports shards=%d mean=%v", eng.Shards(), eng.PartitionByMean())
	}
	if ref.PartitionByMean() {
		t.Fatal("unsharded engine claims mean partitioning")
	}
	q := append([]float64(nil), data[700:700+l]...)
	for _, eps := range []float64{0.1, 0.6} {
		want, err := ref.Search(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Search(q, eps)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got) {
			t.Fatalf("eps=%g: %d matches, want %d", eps, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("eps=%g match %d differs", eps, i)
			}
		}
	}
	wantK, err := ref.SearchTopK(q, 12)
	if err != nil {
		t.Fatal(err)
	}
	gotK, err := eng.SearchTopK(q, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantK {
		if wantK[i] != gotK[i] {
			t.Fatalf("top-k %d differs: %v vs %v", i, gotK[i], wantK[i])
		}
	}

	var buf bytes.Buffer
	if err := eng.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := OpenSaved(data, bytes.NewReader(buf.Bytes()), Options{L: l})
	if err != nil {
		t.Fatal(err)
	}
	if !re.PartitionByMean() || re.Shards() != 3 {
		t.Fatalf("reloaded engine reports shards=%d mean=%v", re.Shards(), re.PartitionByMean())
	}
	got, err := re.Search(q, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ref.Search(q, 0.6)
	if len(got) != len(want) {
		t.Fatalf("reloaded: %d matches, want %d", len(got), len(want))
	}
}

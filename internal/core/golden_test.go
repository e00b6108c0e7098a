package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"twinsearch/internal/core"
	"twinsearch/internal/datasets"
	"twinsearch/internal/series"
	"twinsearch/internal/shard"
)

// goldenBuild builds the windows [lo, hi) and returns the arena with
// the sha-256 of the tree's full-width rendering (the TSFZ v2 stream the
// constants below were captured from): node order, child ranges, leaf
// position runs and every float64 bound, bit for bit. The arena itself
// holds narrowed bounds, so the tree is hashed as the builder holds it
// (core.BuildRangeGolden).
func goldenBuild(t *testing.T, ext *series.Extractor, cfg core.Config, lo, hi int) (*core.Frozen, string) {
	t.Helper()
	h := sha256.New()
	f := core.BuildRangeGolden(t, h, ext, cfg, lo, hi)
	return f, hex.EncodeToString(h.Sum(nil))
}

// TestBuildGoldenTree pins the tree sequential insertion builds, byte
// for byte. The sums were captured at PR 14 (45fe3af), before the
// insert path moved onto the dispatched kernels: a rewrite of
// chooseChild, insert or the splits may change how fast a decision is
// made, never which decision. CI runs this package under the avx2,
// portable and scalar dispatch, so the sums also pin the three kernels
// to one tree.
func TestBuildGoldenTree(t *testing.T) {
	data := datasets.EEGN(1, 20000)
	deep := core.Config{L: 101, MinCap: 3, MaxCap: 7}

	single := []struct {
		cfg       core.Config
		mode      series.NormMode
		minHeight int
		want      string
	}{
		{core.Config{L: 100}, series.NormNone, 3, "38cdb2714ff54ebe58e6c2f5113e851db6cf65e52916d25f9cca1507fbfa234a"},
		{core.Config{L: 100}, series.NormGlobal, 3, "75c04d4584bcedbb1544ae4aed0f5a7202d163d5c9423c23cffdc4f323abe840"},
		{core.Config{L: 100}, series.NormPerSubsequence, 3, "6afd79ff45e85ae59f22b523569b9f533f0e76a670306ad6d54e9e3cd60f2e04"},
		{deep, series.NormNone, 5, "44c7f68323c135fe709cee19c4672574154fc2624e21bbed2f4257aea0fe5dee"},
		{deep, series.NormGlobal, 5, "97e5b1bb47b74462b2f3c5f6b4d6a13bc5c092ff269393f023ca99f9466073e3"},
		{deep, series.NormPerSubsequence, 5, "3aac92c29f293b3b93170887f42cbfe85f8beac963356fb419fec39ed3ba570b"},
	}
	for _, c := range single {
		t.Run(fmt.Sprintf("L=%d/Mc=%d/%v", c.cfg.L, c.cfg.MaxCap, c.mode), func(t *testing.T) {
			ext := series.NewExtractor(data, c.mode)
			f, got := goldenBuild(t, ext, c.cfg, 0, series.NumSubsequences(ext.Len(), c.cfg.L))
			if f.Height() < c.minHeight {
				t.Fatalf("height %d: the case no longer reaches internal and root splits", f.Height())
			}
			if got != c.want {
				t.Errorf("tree changed: stream sha-256 %s, want %s", got, c.want)
			}
		})
	}

	t.Run("shards=4/contiguous", func(t *testing.T) {
		want := [4]string{
			"8b4a9f5f6f5f7f91b22726f1168351e1dbd793b5f6d02e66993194d62dd7d330",
			"09b827073792a11b5eebb24b2df746f65aa86df1c38f714cce44ffdd6fb8ae82",
			"a9b138a19fbe21e24b450496927d2d480c362eeb1605a08b5283124f7466cb06",
			"7659156fed62aa519c177a1446bd0c9aab960d6e9a1bb672389d8478fdf5463f",
		}
		ext := series.NewExtractor(data, series.NormGlobal)
		s, err := shard.Build(ext, shard.Config{Config: core.Config{L: 100}, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		// Each shard is its range's insertion build: hash that build's
		// tree, and hold the shard's arena to the build's bytes.
		for i := range want {
			lo, hi := s.Range(i)
			f, got := goldenBuild(t, ext, core.Config{L: 100}, lo, hi)
			if got != want[i] {
				t.Errorf("shard %d changed: stream sha-256 %s, want %s", i, got, want[i])
			}
			var built, served bytes.Buffer
			if _, err := f.WriteTo(&built); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Shard(i).WriteTo(&served); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(built.Bytes(), served.Bytes()) {
				t.Errorf("shard %d's arena is not its range's build, frozen", i)
			}
		}
	})
}

package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"twinsearch/internal/arena"
	"twinsearch/internal/datasets"
	"twinsearch/internal/series"
)

// mmapWriteChildEnv carries the saved-index path into the re-exec'd
// child that performs the forbidden write.
const mmapWriteChildEnv = "TWINSEARCH_MMAP_WRITE_CHILD"

// TestMmapFrozenWriteFaults pins the memory-protection half of the
// frozenwrite invariant: the arrays of a mapped Frozen are views into a
// PROT_READ mapping, so a write through them must fault the process —
// loudly and immediately — rather than silently corrupt the index file.
// The write runs in a re-exec'd child; the parent checks that the child
// died with a memory fault and that the file bytes are untouched.
func TestMmapFrozenWriteFaults(t *testing.T) {
	if path := os.Getenv(mmapWriteChildEnv); path != "" {
		mmapWriteChild(path)
		return
	}
	if !arena.MapSupported() || binary.NativeEndian.Uint16([]byte{1, 0}) != 1 {
		t.Skip("needs mmap support and a little-endian host (elsewhere views are decoded copies)")
	}
	ts := datasets.RandomWalk(61, 1500)
	fz, _ := frozenOver(t, ts, series.NormGlobal, Config{L: 40})
	path := filepath.Join(t.TempDir(), "frozen.tsfz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fz.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(os.Args[0], "-test.run=TestMmapFrozenWriteFaults$", "-test.v")
	cmd.Env = append(os.Environ(), mmapWriteChildEnv+"="+path)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("child wrote through a mapped Frozen and lived:\n%s", out)
	}
	if !bytes.Contains(out, []byte("fault")) {
		t.Fatalf("child died, but not from a memory fault:\n%s", out)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, after) {
		t.Fatal("mapped index file changed after the faulting write")
	}
}

// mmapWriteChild maps the saved index and stores through the Frozen's
// positions view. The mapping is read-only, so the store must kill the
// process before either fmt line below can run.
func mmapWriteChild(path string) {
	ar, err := arena.Map(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "child: map:", err)
		os.Exit(3)
	}
	ext := series.NewExtractor(datasets.RandomWalk(61, 1500), series.NormGlobal)
	fz, _, err := OpenFrozen(ar, 0, ext, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "child: open:", err)
		os.Exit(3)
	}
	fz.Positions()[0]++ // store into PROT_READ memory: SIGSEGV expected here
	fmt.Fprintln(os.Stderr, "child: write through a read-only mapping survived")
	os.Exit(4)
}

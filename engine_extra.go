package twinsearch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"twinsearch/internal/arena"
	"twinsearch/internal/core"
	"twinsearch/internal/shard"
)

// SaveIndex serializes the built index so a later process can reopen it
// against the same series without paying construction again (see
// OpenSaved). The frozen arenas go to disk as they are — the flat
// arrays, so loading is a few sequential reads per shard: a single
// index as its one shard's bare TSFZ v3 stream, a partitioned one as
// the TSSH v4 container around its segments. Windows appended since the
// last compaction are compacted into the last shard first, so the file
// is what a build over the grown series writes. These two are the only
// formats there are: what SaveIndex writes is what OpenSaved reads.
func (e *Engine) SaveIndex(w io.Writer) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if e.cl != nil {
		return errors.New("twinsearch: a cluster-backed engine serves an already-saved index; save from the process that built it")
	}
	if e.sh.NumShards() == 1 {
		// A single index is saved as its one arena, tail folded in.
		if err := e.sh.Compact(); err != nil {
			return err
		}
		_, err := e.sh.Shard(0).WriteTo(w)
		return err
	}
	_, err := e.sh.WriteTo(w)
	return err
}

// SaveIndexFile is SaveIndex to a file path, via a temp file in the
// same directory renamed over the target. The rename makes the save
// atomic (a crash never leaves a half-written index) and — critically
// for engines opened with Options.MMap — never truncates the inode the
// engine's own arenas may be mapped from: saving over the file you
// mapped reads the old inode and atomically swaps in the new one.
func (e *Engine) SaveIndexFile(path string) error {
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("twinsearch: %w", err)
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := e.SaveIndex(f); err != nil {
		return fail(err)
	}
	// CreateTemp opens 0600; give the index the permissions os.Create
	// used to (other processes mapping the shared copy need read).
	if err := f.Chmod(0o644); err != nil {
		return fail(fmt.Errorf("twinsearch: %w", err))
	}
	// Flush to stable storage before the rename commits the name: a
	// crash must never atomically install an unwritten file.
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("twinsearch: %w", err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("twinsearch: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("twinsearch: %w", err)
	}
	return nil
}

// OpenSaved reconstructs an engine from a stream produced by SaveIndex.
// data must be the same series the index was built over — finite, as
// for Open — and opt must carry the same L and normalization; the
// stream's recorded parameters are authoritative and validated. The
// stream decides whether the engine comes back sharded: a TSSH save
// reopens sharded (with its saved boundaries) regardless of opt.Shards,
// a TSFZ save reopens as the single index. A file from a stream
// generation SaveIndex no longer writes is refused at its header (see
// sniffSaved); a saved index is a pure function of (series, options),
// so rebuilding it is the migration.
//
// The stream is read whole into a heap arena that the index's arrays
// then view in place, and a heap arena is verified in full: every
// section's checksum, every shard's invariants against data, and the
// partition (see core.OpenFrozen), the containment check on the
// engine's executor, so Options.Workers bounds the open as it bounds
// queries.
func OpenSaved(data []float64, r io.Reader, opt Options) (*Engine, error) {
	start := time.Now()
	if err := opt.check(data); err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("twinsearch: reading saved index: %w", err)
	}
	return openSavedArena(data, arena.FromBytes(raw), opt, start)
}

// OpenSavedFile is OpenSaved from a file path. With Options.MMap the
// file is memory-mapped and every arena array pointed directly at the
// mapping — O(header) allocation however large the index, demand paging
// instead of an up-front read, and one physical copy shared across
// processes; the headers and the structure are validated, the sections
// are not read. Without it, or where the file cannot be mapped (no mmap,
// a mapping that fails at run time), the file is read into the heap and
// verified in full, as by OpenSaved. Call Engine.Close when done —
// mapped engines hold the region until then.
func OpenSavedFile(data []float64, path string, opt Options) (*Engine, error) {
	start := time.Now()
	if err := opt.check(data); err != nil {
		return nil, err
	}
	ar, err := arena.Open(path, opt.MMap)
	if err != nil {
		return nil, fmt.Errorf("twinsearch: %w", err)
	}
	return openSavedArena(data, ar, opt, start)
}

// openSavedArena builds an engine whose index arrays are views into ar,
// the one open sequence of OpenSaved and OpenSavedFile. A mapped ar is
// the engine's to release (Engine.Close); a heap one lives as long as a
// shard views it. On error ar is released here.
func openSavedArena(data []float64, ar *arena.Arena, opt Options, start time.Time) (*Engine, error) {
	sharded, err := sniffSaved(ar.Bytes())
	if err != nil {
		ar.Close()
		return nil, err
	}
	e := newEngine(data, opt)
	if sharded {
		e.sh, err = shard.OpenArena(ar, e.ext, e.ex)
	} else {
		e.sh, err = shard.Single(ar, e.ext, e.ex)
	}
	if err == nil && e.sh.L() != opt.L {
		err = fmt.Errorf("twinsearch: saved index has L=%d, options request L=%d", e.sh.L(), opt.L)
	}
	if err != nil {
		ar.Close()
		return nil, err
	}
	if ar.Mapped() {
		e.ar = ar
		if opt.Prefetch {
			// Warm the mapping before the first query pays the page-fault
			// tail: advise the kernel, then touch a bounded prefix.
			ar.Prefetch(0)
		}
	}
	e.registerIndexInfo(start)
	return e, nil
}

// savedHeaderLen is the prefix every saved index starts with: a 4-byte
// magic and a little-endian u16 version.
const savedHeaderLen = 6

// sniffSaved reads the (magic, version) prefix of a saved index: the
// TSSH v4 container (sharded), a bare TSFZ v3 stream (the single index),
// or an error. Anything else under a magic this code base ever wrote —
// TSIX, TSFZ v1/v2 (v2 held float64 bounds and no checksums), TSSH
// v1–v3 — is refused with one text naming the stream and the command
// that rebuilds it.
func sniffSaved(hdr []byte) (sharded bool, err error) {
	if len(hdr) < savedHeaderLen {
		return false, fmt.Errorf("twinsearch: saved index truncated (%d bytes)", len(hdr))
	}
	magic, version := string(hdr[:4]), binary.LittleEndian.Uint16(hdr[4:])
	switch {
	case magic == shard.Magic && version == shard.PersistVersion:
		return true, nil
	case magic == core.FrozenMagic && version == core.FrozenVersion:
		return false, nil
	case magic == shard.Magic || magic == core.FrozenMagic || magic == "TSIX":
		return false, fmt.Errorf("twinsearch: saved index is a %s v%d stream; this version reads only %s v%d and %s v%d — rebuild it from its series: tsquery -series S -qstart 0 -l L [-shards N] -saveindex F",
			magic, version, core.FrozenMagic, core.FrozenVersion, shard.Magic, shard.PersistVersion)
	default:
		return false, fmt.Errorf("twinsearch: saved index has unknown magic %q", hdr[:4])
	}
}

// Append ingests new trailing values into the engine's series and
// indexes every window the growth completes — streaming support, an
// extension beyond the paper's static setting. Under NormGlobal the
// appended values are normalized with the frozen original (mean, σ);
// see series.Extractor.Append. Do not call concurrently with searches.
// Under raw/per-subsequence modes the engine extends the slice passed
// to Open (reallocating when its capacity is exhausted); callers must
// not retain independent views past its original length.
//
// Every value must be finite, for Open's reason — a NaN window matches
// every query — and a call carrying one is refused whole: nothing is
// appended, indexed or invalidated.
//
// The windows gained join the index's tail (see shard.Index): every
// search traverses the frozen arenas and scans the tail, so an Append
// costs the series' growth and nothing else until the tail outgrows
// its compaction bound — more than 4 096 windows and more than 1/16 of
// the last shard's — when this Append rebuilds the last shard over its
// range and the tail (shard.Index.Compact). An engine opened by mapping
// appends in place: only that rebuild moves the last shard to the heap.
//
// Windows already indexed are untouched — the normalization basis is
// frozen, or per window — which is what lets the result cache keep
// every entry across an Append and verify only the windows gained (see
// searchCached). Each call bumps Epoch.
func (e *Engine) Append(values ...float64) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if e.cl != nil {
		return errors.New("twinsearch: a cluster-backed engine is read-only; append at the process that owns the index")
	}
	if len(values) == 0 {
		return nil
	}
	if i := nonFinite(values); i >= 0 {
		return fmt.Errorf("twinsearch: non-finite appended value %v at position %d; clean or impute missing samples first", values[i], i)
	}
	e.ext.Append(values...)
	e.epoch.Add(1)
	return e.sh.Extend()
}

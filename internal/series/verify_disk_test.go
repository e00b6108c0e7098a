package series

import (
	"errors"
	"testing"
)

// memReader serves raw windows from a slice through the WindowReader
// interface, standing in for store.Disk without touching the filesystem.
type memReader struct {
	data  []float64
	reads int
}

func (r *memReader) ReadAt(dst []float64, p int) error {
	if p < 0 || p+len(dst) > len(r.data) {
		return errors.New("out of bounds")
	}
	r.reads++
	copy(dst, r.data[p:])
	return nil
}

func TestDiskVerifyMatchesMemory(t *testing.T) {
	ts := randomSeries(21, 600)
	for _, mode := range []NormMode{NormNone, NormGlobal, NormPerSubsequence} {
		ext := NewExtractor(ts, mode)
		q := ext.ExtractCopy(123, 64)
		mem := MakeVerifier(ext, q, 0.4)
		memResults := make([]bool, 0, 500)
		for p := 0; p+64 <= len(ts); p += 3 {
			memResults = append(memResults, mem.Verify(p))
		}

		reader := &memReader{data: ts}
		ext.AttachStore(reader)
		disk := MakeVerifier(ext, q, 0.4)
		i := 0
		for p := 0; p+64 <= len(ts); p += 3 {
			if got := disk.Verify(p); got != memResults[i] {
				t.Fatalf("mode=%v p=%d: disk=%v mem=%v", mode, p, got, memResults[i])
			}
			i++
		}
		if reader.reads != i {
			t.Fatalf("mode=%v: reader saw %d reads", mode, reader.reads)
		}
	}
}

func TestDiskVerifyConstantGlobalSeries(t *testing.T) {
	ts := []float64{4, 4, 4, 4, 4, 4}
	ext := NewExtractor(ts, NormGlobal)
	ext.AttachStore(&memReader{data: ts})
	v := MakeVerifier(ext, []float64{0, 0, 0}, 0.1)
	if !v.Verify(1) {
		t.Fatal("zero query must match constant series under global norm")
	}
}

func TestDiskVerifyPerSubConstantWindow(t *testing.T) {
	ts := []float64{7, 7, 7, 7, 1, 9}
	ext := NewExtractor(ts, NormPerSubsequence)
	ext.AttachStore(&memReader{data: ts})
	v := MakeVerifier(ext, []float64{0, 0, 0}, 0.1)
	if !v.Verify(0) {
		t.Fatal("zero query must match constant window")
	}
	v2 := MakeVerifier(ext, []float64{0.5, 0, 0}, 0.2)
	if v2.Verify(0) {
		t.Fatal("out-of-band query must fail")
	}
}

func TestDiskVerifyReadFailurePanics(t *testing.T) {
	ts := randomSeries(22, 100)
	ext := NewExtractor(ts, NormNone)
	ext.AttachStore(&memReader{data: ts[:10]}) // shorter than the series
	v := MakeVerifier(ext, make([]float64, 20), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on read failure")
		}
	}()
	v.Verify(50)
}

//go:build linux || darwin || freebsd || netbsd || openbsd

package kernel

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"unsafe"

	"twinsearch/internal/arena"
)

// TestSweepWindowsGuardPage scores windows that end on the last byte
// before an inaccessible page: a tail step that read a whole vector, or
// a masked load that touched a lane past start+n, faults here instead
// of reading a neighbour's memory unnoticed. Every n mod 4, on every
// implementation.
func TestSweepWindowsGuardPage(t *testing.T) {
	page := os.Getpagesize()
	path := filepath.Join(t.TempDir(), "series")
	if err := os.WriteFile(path, make([]byte, 2*page), 0o600); err != nil {
		t.Fatal(err)
	}
	ar, err := arena.Map(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ar.Close()
	buf := ar.Bytes()
	if err := syscall.Mprotect(buf[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	//tsvet:ignore the series must be the mapping itself for its last lane to border the guard page; page-aligned and page-sized
	data := unsafe.Slice((*float64)(unsafe.Pointer(&buf[0])), page/8)

	for n := 1; n <= 45; n++ {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i%5) - 2
		}
		last := int32(len(data) - n)
		checkWindowSweep(t, data, []int32{last, 0, last - 1, last}, s, 1)
		checkWindowSweep(t, data, []int32{last}, s, 5) // never abandons: the tail runs
	}
}

// TestWindowsInside32GuardPage tests windows, bounds and lane orders
// that each end on the last byte before an inaccessible page: a tail
// step that read a whole vector of the window, of a bound or of the
// order, or a masked load or gather that touched a lane past n, faults
// here instead of reading a neighbour's memory unnoticed. Every n mod
// 4, on every implementation, the band stored in window order and in a
// spread order, enclosing the windows and with its last upper lane
// moved inward.
func TestWindowsInside32GuardPage(t *testing.T) {
	page := os.Getpagesize()
	buf, err := syscall.Mmap(-1, 0, 8*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(buf)
	// Four writable pages, each followed by a guard page.
	for r := 0; r < 4; r++ {
		if err := syscall.Mprotect(buf[(2*r+1)*page:(2*r+2)*page], syscall.PROT_NONE); err != nil {
			t.Skipf("mprotect: %v", err)
		}
	}
	//tsvet:ignore each array must be the mapping itself for its last lane to border a guard page; page-aligned and page-sized
	data := unsafe.Slice((*float64)(unsafe.Pointer(&buf[0])), page/8)
	//tsvet:ignore as above
	upperPage := unsafe.Slice((*float32)(unsafe.Pointer(&buf[2*page])), page/4)
	//tsvet:ignore as above
	lowerPage := unsafe.Slice((*float32)(unsafe.Pointer(&buf[4*page])), page/4)
	//tsvet:ignore as above
	atPage := unsafe.Slice((*int32)(unsafe.Pointer(&buf[6*page])), page/4)
	for i := range data {
		data[i] = float64(i%9) - 4
	}
	for n := 1; n <= 45; n++ {
		for kind := 0; kind < 2; kind++ {
			last := int32(len(data) - n)
			starts := []int32{last, 0, last - 1, last}
			order := testOrder(nil, n, kind)
			at := atPage[len(atPage)-n:]
			copy(at, order.at)
			order = LaneOrder{at: at} // a permutation still, ending at the guard
			u, l := enclosingBounds(data, starts, n)
			u, l = stored(u, l, order)
			upper, lower := upperPage[len(upperPage)-n:], lowerPage[len(lowerPage)-n:]
			copy(upper, u)
			copy(lower, l)
			if !checkInside32(t, upper, lower, data, starts, order) {
				t.Fatalf("n=%d: the enclosing band refused its windows", n)
			}
			upper[n-1] = math.Nextafter32(upper[n-1], float32(math.Inf(-1)))
			checkInside32(t, upper, lower, data, starts, order)
		}
	}
}

// TestBoundsInside32GuardPage tests child rows and bands whose upper
// bound, lower bound, child upper rows and child lower rows each end on
// the last byte before an inaccessible page: a tail step that read a
// whole vector of any operand, or a masked load that touched a lane
// past a row's n, faults here instead of reading a neighbour's memory
// unnoticed. Every n mod 8, on every implementation, with the band
// enclosing the rows and with the last row's last child lane one
// float32 step above the band.
func TestBoundsInside32GuardPage(t *testing.T) {
	page := os.Getpagesize()
	buf, err := syscall.Mmap(-1, 0, 8*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(buf)
	// Four writable pages, each followed by a guard page.
	region := make([][]float32, 4)
	for r := range region {
		if err := syscall.Mprotect(buf[(2*r+1)*page:(2*r+2)*page], syscall.PROT_NONE); err != nil {
			t.Skipf("mprotect: %v", err)
		}
		//tsvet:ignore each array must be the mapping itself for its last lane to border a guard page; page-aligned and page-sized
		region[r] = unsafe.Slice((*float32)(unsafe.Pointer(&buf[2*r*page])), page/4)
	}
	rng := rand.New(rand.NewSource(48))
	for n := 1; n <= 45; n++ {
		const rows = 3
		end := page / 4
		cu, cl := region[2][end-rows*n:], region[3][end-rows*n:]
		for k := range cu {
			v, w := float32(rng.NormFloat64()), float32(rng.Float64())
			cu[k], cl[k] = v+w, v-w
		}
		u, l := enclosingRows(cu, cl, n, rows)
		upper, lower := region[0][end-n:], region[1][end-n:]
		copy(upper, u)
		copy(lower, l)
		if !checkBounds32(t, upper, lower, cu, cl, n, rows) {
			t.Fatalf("n=%d: the enclosing band refused its rows", n)
		}
		cu[rows*n-1] = math.Nextafter32(upper[n-1], float32(math.Inf(1)))
		if checkBounds32(t, upper, lower, cu, cl, n, rows) {
			t.Fatalf("n=%d: a child lane one step above the band passed", n)
		}
	}
}

// TestExpandGuardPage expands bands whose upper bound, lower bound and
// sequence each end on the last byte before an inaccessible page: a
// tail step that loaded or stored a whole vector, or a masked access
// that touched a lane past n, faults here instead of reading or
// overwriting a neighbour unnoticed. Every n mod 4, on every
// implementation.
func TestExpandGuardPage(t *testing.T) {
	page := os.Getpagesize()
	buf, err := syscall.Mmap(-1, 0, 6*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(buf)
	// Three writable pages, each followed by a guard page.
	region := make([][]float64, 3)
	for r := range region {
		if err := syscall.Mprotect(buf[(2*r+1)*page:(2*r+2)*page], syscall.PROT_NONE); err != nil {
			t.Skipf("mprotect: %v", err)
		}
		//tsvet:ignore each array must be the mapping itself for its last lane to border a guard page; page-aligned and page-sized
		region[r] = unsafe.Slice((*float64)(unsafe.Pointer(&buf[2*r*page])), page/8)
	}
	rng := rand.New(rand.NewSource(25))
	for n := 1; n <= 45; n++ {
		end := page/8 - n
		u, l, s := region[0][end:], region[1][end:], region[2][end:]
		for i := 0; i < n; i++ {
			a, b := rng.NormFloat64(), rng.NormFloat64()
			u[i], l[i], s[i] = max(a, b), min(a, b), 2*rng.NormFloat64()
		}
		origU, origL := append([]float64(nil), u...), append([]float64(nil), l...)
		wantU, wantL := append([]float64(nil), u...), append([]float64(nil), l...)
		expandScalar(wantU, wantL, s)
		for name, expand := range expanders() {
			copy(u, origU)
			copy(l, origL)
			expand(u, l, s)
			for i := range wantU {
				if !bitsEq(u[i], wantU[i]) || !bitsEq(l[i], wantL[i]) {
					t.Fatalf("%s n=%d lane %d: (%v, %v), scalar (%v, %v)", name, n, i, u[i], l[i], wantU[i], wantL[i])
				}
			}
		}
	}
}

// TestCompareWidthIncreaseGuardPage compares bands whose four bounds
// and sequence each end on the last byte before an inaccessible page: a
// tail step that loaded a whole vector, or a masked load that touched a
// lane past n, faults here instead of reading a neighbour unnoticed.
// Every n mod 4, on every implementation, with bands far apart (the
// sums decide) and with one band twice (the lane-order sums decide).
func TestCompareWidthIncreaseGuardPage(t *testing.T) {
	page := os.Getpagesize()
	buf, err := syscall.Mmap(-1, 0, 10*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(buf)
	// Five writable pages, each followed by a guard page.
	region := make([][]float64, 5)
	for r := range region {
		if err := syscall.Mprotect(buf[(2*r+1)*page:(2*r+2)*page], syscall.PROT_NONE); err != nil {
			t.Skipf("mprotect: %v", err)
		}
		//tsvet:ignore each array must be the mapping itself for its last lane to border a guard page; page-aligned and page-sized
		region[r] = unsafe.Slice((*float64)(unsafe.Pointer(&buf[2*r*page])), page/8)
	}
	rng := rand.New(rand.NewSource(53))
	for n := 1; n <= 45; n++ {
		end := page/8 - n
		au, al, bu, bl, s := region[0][end:], region[1][end:], region[2][end:], region[3][end:], region[4][end:]
		for i := 0; i < n; i++ {
			a, b := rng.NormFloat64(), rng.NormFloat64()
			au[i], al[i] = max(a, b), min(a, b)
			bu[i], bl[i] = au[i]/4, al[i]/4
			s[i] = 2 * rng.NormFloat64()
		}
		checkCompare(t, au, al, bu, bl, s)
		copy(bu, au)
		copy(bl, al)
		checkCompare(t, au, al, bu, bl, s)
	}
}

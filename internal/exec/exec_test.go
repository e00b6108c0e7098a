package exec

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	if got := New(3).Workers(); got != 3 {
		t.Fatalf("Workers() = %d, want 3", got)
	}
	if got := New(0).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers() = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := New(-1).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers() = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if Default() != Default() {
		t.Fatal("Default() must return one shared executor")
	}
}

func TestForEach(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		e := New(workers)
		var sum atomic.Int64
		e.ForEach(100, func(i int) { sum.Add(int64(i)) })
		if got := sum.Load(); got != 4950 {
			t.Fatalf("workers=%d: sum = %d, want 4950", workers, got)
		}
		// Reuse after completion.
		var n atomic.Int64
		e.ForEach(7, func(int) { n.Add(1) })
		if n.Load() != 7 {
			t.Fatalf("workers=%d: second ForEach ran %d units", workers, n.Load())
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	e := New(2)
	ran := false
	e.ForEach(0, func(int) { ran = true })
	if ran {
		t.Fatal("ForEach(0) ran a unit")
	}
}

// TestUnitsRunInSubmissionOrder: with one worker, queued units run in
// the order they were submitted, across groups — an earlier query's
// units are not overtaken by a later query's.
func TestUnitsRunInSubmissionOrder(t *testing.T) {
	e := New(1)
	gate, held := make(chan struct{}), make(chan struct{})
	g0 := e.NewGroup()
	g0.Go(func(*Ctx) { close(held); <-gate })
	<-held
	var order []int // appended only by the single worker
	a, b := e.NewGroup(), e.NewGroup()
	for i := 0; i < 8; i++ {
		g := a
		if i >= 4 {
			g = b
		}
		g.Go(func(*Ctx) { order = append(order, i) })
	}
	close(gate)
	g0.Wait()
	a.Wait()
	b.Wait()
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7}; !slices.Equal(order, want) {
		t.Fatalf("run order %v, want %v", order, want)
	}
}

// TestConcurrentGroups drives many groups from many goroutines over
// one executor; under -race this guards the scheduler's whole surface.
func TestConcurrentGroups(t *testing.T) {
	e := New(4)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			var sum atomic.Int64
			g := e.NewGroup()
			for j := 0; j < 50; j++ {
				g.Go(func(*Ctx) { sum.Add(1) })
			}
			g.Wait()
			if got := sum.Load(); got != 50 {
				t.Errorf("group %d: sum = %d, want 50", seed, got)
			}
		}(i)
	}
	wg.Wait()
}

// TestWorkersExitWhenIdle: the pool must drain to zero goroutines
// after the idle timeout, and respawn on the next submission.
func TestWorkersExitWhenIdle(t *testing.T) {
	e := New(4)
	var n atomic.Int64
	e.ForEach(32, func(int) { n.Add(1) })
	deadline := time.Now().Add(2 * time.Second)
	for e.liveWorkers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d workers still alive long after idle timeout", e.liveWorkers())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The executor still works after its pool drained.
	e.ForEach(5, func(int) { n.Add(1) })
	if n.Load() != 37 {
		t.Fatalf("ran %d units, want 37", n.Load())
	}
}

// TestWorkerLimit: at most Workers() units run at once.
func TestWorkerLimit(t *testing.T) {
	e := New(2)
	var inFlight, peak atomic.Int64
	e.ForEach(16, func(int) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		inFlight.Add(-1)
	})
	if got := peak.Load(); got > 2 {
		t.Fatalf("peak concurrency %d exceeds worker limit 2", got)
	}
}

package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersDefault(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d", got)
	}
}

// TestMapEmpty checks zero jobs on every path (default, serial, pooled):
// no job is called and both result slices are empty.
func TestMapEmpty(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		calls := 0
		out, errs := MapAll(workers, 0, func(i int) (int, error) {
			calls++
			return i, nil
		})
		if calls != 0 || len(out) != 0 || len(errs) != 0 {
			t.Fatalf("workers=%d: MapAll over 0 jobs made %d calls, returned %d results / %d errors",
				workers, calls, len(out), len(errs))
		}
	}
}

func TestMapPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		out, errs := MapAll(workers, 37, func(i int) (int, error) {
			// Stagger completion so later jobs often finish first.
			time.Sleep(time.Duration(37-i) * 100 * time.Microsecond)
			return i * i, nil
		})
		for i, v := range out {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapSerialRunsInOrder(t *testing.T) {
	var order []int
	MapAll(1, 5, func(i int) (int, error) {
		order = append(order, i) // no goroutines in the serial path
		return i, nil
	})
	if len(order) != 5 {
		t.Fatalf("serial path ran %d of 5 jobs", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial execution order = %v", order)
		}
	}
}

func TestMapActuallyRunsConcurrently(t *testing.T) {
	var inFlight, peak atomic.Int64
	MapAll(4, 16, func(i int) (int, error) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		inFlight.Add(-1)
		return i, nil
	})
	if peak.Load() < 2 {
		t.Fatalf("peak concurrency %d, want >= 2", peak.Load())
	}
}

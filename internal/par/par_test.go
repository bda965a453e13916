package par

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndicesOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := New(workers)
		const n = 1000
		hits := make([]int32, n)
		p.ForEach(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times, want 1", workers, i, h)
			}
		}
	}
}

func TestForEachZeroAndNegative(t *testing.T) {
	p := New(4)
	ran := false
	p.ForEach(0, func(int) { ran = true })
	p.ForEach(-3, func(int) { ran = true })
	if ran {
		t.Fatal("fn ran for n <= 0")
	}
}

func TestSerialRunsInIndexOrderOnCaller(t *testing.T) {
	p := New(1)
	var order []int
	caller := goroutineID(t)
	p.ForEach(50, func(i int) {
		order = append(order, i)
		if got := goroutineID(t); got != caller {
			t.Fatalf("serial pool ran fn on a different goroutine")
		}
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order[%d] = %d", i, v)
		}
	}
}

// goroutineID extracts the goroutine number from the first stack-trace
// line ("goroutine N [running]:"); the test only compares values for
// equality within one process. Only the number is used — deeper stack
// bytes vary with the call site and build mode.
func goroutineID(t *testing.T) string {
	t.Helper()
	buf := make([]byte, 64)
	s := string(buf[:runtime.Stack(buf, false)])
	f := strings.Fields(s)
	if len(f) < 2 || f[0] != "goroutine" {
		t.Fatalf("unexpected stack prefix %q", s)
	}
	return f[1]
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	p := New(workers)
	var cur, peak int32
	var mu sync.Mutex
	p.ForEach(200, func(int) {
		c := atomic.AddInt32(&cur, 1)
		mu.Lock()
		if c > peak {
			peak = c
		}
		mu.Unlock()
		atomic.AddInt32(&cur, -1)
	})
	if peak > workers {
		t.Fatalf("observed %d concurrent executors, budget is %d", peak, workers)
	}
}

func TestSharedBudgetAcrossNestedCalls(t *testing.T) {
	// Two concurrent ForEach calls on one pool: combined helper count
	// must respect the single budget. Each caller contributes itself, so
	// the ceiling is callers + (workers-1).
	const workers = 4
	p := New(workers)
	var cur, peak int32
	var mu sync.Mutex
	body := func(int) {
		c := atomic.AddInt32(&cur, 1)
		mu.Lock()
		if c > peak {
			peak = c
		}
		mu.Unlock()
		atomic.AddInt32(&cur, -1)
	}
	var wg sync.WaitGroup
	const callers = 3
	for k := 0; k < callers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.ForEach(300, body)
		}()
	}
	wg.Wait()
	if max := int32(callers + workers - 1); peak > max {
		t.Fatalf("observed %d concurrent executors across nested calls, ceiling %d", peak, max)
	}
}

func TestForEachPropagatesPanic(t *testing.T) {
	p := New(4)
	defer func() {
		r := recover()
		if r != "boom-17" {
			t.Fatalf("recovered %v, want boom-17", r)
		}
	}()
	p.ForEach(64, func(i int) {
		if i == 17 {
			panic("boom-17")
		}
	})
	t.Fatal("ForEach returned instead of panicking")
}

func TestForEachPanicLeavesPoolUsable(t *testing.T) {
	p := New(4)
	func() {
		defer func() { recover() }() //nolint:errcheck
		p.ForEach(32, func(i int) { panic("first") })
	}()
	var count int32
	p.ForEach(100, func(int) { atomic.AddInt32(&count, 1) })
	if count != 100 {
		t.Fatalf("pool ran %d/100 items after a panicking call", count)
	}
}

func TestResolveAndDefaults(t *testing.T) {
	if got := Resolve(nil); got != Shared() {
		t.Fatal("Resolve(nil) must be the shared pool")
	}
	own := New(2)
	if got := Resolve(own); got != own {
		t.Fatal("Resolve must pass explicit pools through")
	}
	if w := New(0).workers; w != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(0) has %d workers, want GOMAXPROCS", w)
	}
	if w := New(1).workers; w != 1 {
		t.Fatalf("New(1) has %d workers", w)
	}
}

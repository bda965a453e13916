// Package par provides the bounded worker budget that every
// simulation fan-out runs on: the oracle's per-app configuration sweep
// and the chaos soak draw helper goroutines from one process-wide token
// pool, and the supervisor runs its cells through a pool of their own,
// so nesting one parallel layer inside another (cells × sweeps) cannot
// oversubscribe the host.
//
// The design keeps determinism trivial: a Pool never decides *what*
// runs or in what order results are stored — callers index into
// preallocated result slots by item index, so output is positionally
// identical to a serial loop regardless of scheduling. The pool only
// bounds *how many* items run at once.
//
// The calling goroutine always participates in the work, so ForEach
// makes progress even when every token is held by other callers; a
// caller therefore never deadlocks waiting on its own budget, and
// degenerates to the plain serial loop under full contention.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded budget of helper goroutines. The zero value is not
// usable; use New. A Pool is safe for concurrent use by any number of
// callers — the token bucket is the shared semaphore.
type Pool struct {
	workers int
	tokens  chan struct{}
}

// New returns a pool allowing up to workers simultaneous executors per
// ForEach call (the caller plus workers-1 helpers). workers <= 0 means
// runtime.GOMAXPROCS(0); New(1) runs ForEach entirely on the calling
// goroutine, in index order.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.tokens = make(chan struct{}, workers-1)
		for i := 0; i < workers-1; i++ {
			p.tokens <- struct{}{}
		}
	}
	return p
}

// shared is the process-default pool, sized to GOMAXPROCS. It is what
// a nil *Pool resolves to, so "no pool configured" still saturates the
// host while staying within one budget.
var (
	sharedOnce sync.Once
	sharedPool *Pool
)

// Shared returns the process-wide default pool (GOMAXPROCS workers).
func Shared() *Pool {
	sharedOnce.Do(func() { sharedPool = New(0) })
	return sharedPool
}

// Resolve maps nil to the shared pool, so struct fields can leave the
// pool unset and still parallelise.
func Resolve(p *Pool) *Pool {
	if p == nil {
		return Shared()
	}
	return p
}

// ForEach runs fn(i) for every i in [0, n). The calling goroutine
// always works; helper goroutines join only while a budget token is
// free, and return their token when the items run out. fn must write
// results into caller-owned slots indexed by i — the pool imposes no
// result ordering of its own.
//
// If any fn panics, ForEach waits for in-flight items, then re-panics
// the first captured value on the calling goroutine (remaining items
// may be skipped). This mirrors a serial loop closely enough that
// callers' recover-based error paths behave identically.
func (p *Pool) ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	var (
		next     atomic.Int64
		panicked atomic.Bool
		panicVal any
		panicMu  sync.Mutex
	)
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n || panicked.Load() {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						panicMu.Lock()
						if !panicked.Swap(true) {
							panicVal = r
						}
						panicMu.Unlock()
					}
				}()
				fn(i)
			}()
		}
	}

	var wg sync.WaitGroup
	// Spawn at most n-1 helpers (the caller covers one item stream) and
	// only as many as the budget has free right now: a busy budget means
	// other callers are already saturating the host, so this call simply
	// proceeds with fewer hands rather than queueing.
	if p.tokens != nil {
		for h := 0; h < n-1; h++ {
			select {
			case tok := <-p.tokens:
				wg.Add(1)
				go func() {
					defer func() {
						p.tokens <- tok
						wg.Done()
					}()
					work()
				}()
			default:
				h = n // budget exhausted; stop trying
			}
		}
	}
	work()
	wg.Wait()
	if panicked.Load() {
		panicMu.Lock()
		r := panicVal
		panicMu.Unlock()
		panic(r)
	}
}

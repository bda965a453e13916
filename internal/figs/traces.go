package figs

import (
	"slices"
	"sync"

	"cash/internal/alloc"
	"cash/internal/experiment"
	"cash/internal/workload"
)

// traceSlots holds the recorded streams the harness's batch runs
// replay. A figure runs each app under several policies, all on the
// same seed, so its cells record an app's stream once and replay it to
// every run instead of generating it each time (DESIGN.md §3e). Memory
// stays bounded twice over: the harness holds at most max(Jobs, 1)
// traces, and every trace is reserved against the process-wide
// workload.TraceBudget before it is recorded. Slots no running cell
// holds are evicted, least recently used first, whenever a new slot
// needs their place or their bytes, and whenever a cold oracle sweep
// needs their bytes (yield), so idle slots never starve another
// recording. Traces live only while a figure's cells run: the last cell
// to finish releases them, so an idle harness holds none of the budget.
// A run that finds no free slot, no room in the budget or no figure
// running (a timed-out cell that runs on) generates its stream as
// before; the replay is instruction-for-instruction the generated
// stream, so no result depends on which happened.
type traceSlots struct {
	mu       sync.Mutex
	figures  int          // figures whose cells are running
	slots    []*traceSlot // least recently used first
	recorded int          // traces recorded over the harness's life
}

// traceSlot is one (app definition, seed) stream, recorded by the first
// cell that needs it.
type traceSlot struct {
	app   workload.App
	seed  uint64
	size  int64 // bytes reserved against workload.TraceBudget
	users int   // cells holding the slot
	once  sync.Once
	tr    *workload.Trace
}

// open and close bracket a figure's cells; close releases every slot
// no cell holds once no figure is running.
func (s *traceSlots) open() {
	s.mu.Lock()
	s.figures++
	s.mu.Unlock()
}

func (s *traceSlots) close() {
	s.mu.Lock()
	s.figures--
	s.evictIdle()
	s.mu.Unlock()
}

// hold returns the slot of (app, seed), taking a new slot for it if
// none holds it yet: idle slots are evicted, least recently used first,
// until the slots are under limit and the trace fits the budget. It
// returns nil when that is not enough (every slot is in use, or the
// budget is held elsewhere) or no figure is running. Pair it with drop.
func (s *traceSlots) hold(app workload.App, seed uint64, limit int) *traceSlot {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.figures == 0 {
		return nil
	}
	i := slices.IndexFunc(s.slots, func(sl *traceSlot) bool { return sl.seed == seed && sl.app.Equal(app) })
	var sl *traceSlot
	if i >= 0 {
		sl = s.slots[i]
		s.slots = slices.Delete(s.slots, i, i+1)
	} else {
		size := workload.TraceBytes(app)
		if size > workload.TraceBudget {
			return nil // never fits: keep the idle slots
		}
		if len(s.slots) >= limit && !s.evict() {
			return nil
		}
		for !workload.ReserveTrace(size) {
			if !s.evict() {
				return nil
			}
		}
		sl = &traceSlot{app: app, seed: seed, size: size}
	}
	sl.users++
	s.slots = append(s.slots, sl)
	return sl
}

// evict drops the least recently used slot no cell holds, reporting
// whether there was one.
func (s *traceSlots) evict() bool {
	i := slices.IndexFunc(s.slots, func(sl *traceSlot) bool { return sl.users == 0 })
	if i < 0 {
		return false
	}
	workload.ReleaseTrace(s.slots[i].size)
	s.slots = slices.Delete(s.slots, i, i+1)
	return true
}

// yield evicts slots no cell holds, least recently used first, until
// size more bytes fit the trace budget or no idle slot is left, so a
// cold oracle sweep about to record a trace of that size is not starved
// by slots no cell is using.
func (s *traceSlots) yield(size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for size <= workload.TraceBudget && workload.TraceHeld()+size > workload.TraceBudget && s.evict() {
	}
}

// drop ends a cell's hold on sl (nil is a no-op).
func (s *traceSlots) drop(sl *traceSlot) {
	if sl == nil {
		return
	}
	s.mu.Lock()
	sl.users--
	s.evictIdle()
	s.mu.Unlock()
}

// evictIdle releases every slot no cell holds once no figure is
// running.
func (s *traceSlots) evictIdle() {
	if s.figures == 0 {
		for s.evict() {
		}
	}
}

// trace returns sl's recorded stream, recording it on first use; a nil
// slot has none.
func (s *traceSlots) trace(sl *traceSlot) *workload.Trace {
	if sl == nil {
		return nil
	}
	sl.once.Do(func() {
		sl.tr = workload.Record(sl.app, sl.seed)
		s.mu.Lock()
		s.recorded++
		s.mu.Unlock()
	})
	return sl.tr
}

// runBatch runs one batch experiment, replaying the app's stream from
// a trace slot when one is free.
func (h *Harness) runBatch(app workload.App, policy alloc.Allocator, opts experiment.Opts) (experiment.Result, error) {
	seed := opts.Seed
	if seed == 0 {
		seed = experiment.DefaultSeed
	}
	sl := h.traces.hold(app, seed, max(h.Jobs, 1))
	defer h.traces.drop(sl)
	opts.Trace = h.traces.trace(sl)
	return experiment.Run(app, policy, opts)
}

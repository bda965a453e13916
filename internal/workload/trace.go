package workload

import (
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"cash/internal/isa"
)

// instrBytes is the in-memory size of one recorded instruction.
const instrBytes = int64(unsafe.Sizeof(isa.Instr{}))

// Trace is an application's whole dynamic instruction stream for one
// seed, generated once and replayed any number of times. It is
// read-only after Record returns, so concurrent readers may share it.
type Trace struct {
	app    App
	seed   uint64
	instrs []isa.Instr
	ends   []int64 // ends[i]: stream offset one past phase i
}

// TraceBytes returns the memory a Trace of app holds, so a caller can
// budget for it before recording.
func TraceBytes(app App) int64 { return app.TotalInstrs() * instrBytes }

// TraceBudget caps the bytes held by all live recorded traces in the
// process: one or two full-scale suite apps' traces (57–122 MB each)
// fit at once; x264's (288 MB) never does, and its users generate the
// stream instead.
const TraceBudget = 256 << 20

// traceStore is the process-wide store HoldTrace serves: at most one
// live recording per (app definition, seed), each reserved against
// TraceBudget before it is recorded.
// Its counters change under mu and are read without it.
type traceStore struct {
	mu       sync.Mutex
	live     []*storedTrace
	brackets int          // open KeepTraces brackets
	held     atomic.Int64 // bytes of TraceBudget reserved
	recorded atomic.Int64 // recordings made over the process's life
}

// storedTrace is one live recording and the count of its holders.
type storedTrace struct {
	app     App
	seed    uint64
	size    int64
	holders int
	ready   chan struct{} // closed once Record returns or panics
	tr      *Trace        // nil if Record panicked
}

var traces traceStore

// HoldTrace returns the one live recording of (app, seed), recording
// it on a miss; concurrent first holders wait on a single Record. A
// miss first drops every trace nobody holds, then reserves the new
// trace's bytes against TraceBudget. If it still does not fit,
// HoldTrace returns nil (and reserves nothing), and the caller
// generates the stream instead. Call release once done reading; it is
// a no-op when the trace is nil. Outside a KeepTraces bracket a trace
// is dropped at its last release.
func HoldTrace(app App, seed uint64) (tr *Trace, release func()) {
	s := &traces
	s.mu.Lock()
	if i := slices.IndexFunc(s.live, func(e *storedTrace) bool { return e.seed == seed && e.app.Equal(app) }); i >= 0 {
		e := s.live[i]
		e.holders++
		s.mu.Unlock()
		<-e.ready
		return e.tr, func() { s.release(e) }
	}
	size := TraceBytes(app)
	if size <= TraceBudget {
		s.dropUnheld()
	}
	if s.held.Load()+size > TraceBudget {
		s.mu.Unlock()
		return nil, func() {}
	}
	e := &storedTrace{app: app, seed: seed, size: size, holders: 1, ready: make(chan struct{})}
	s.held.Add(size)
	s.live = append(s.live, e)
	s.recorded.Add(1)
	s.mu.Unlock()
	defer func() {
		if e.tr == nil { // Record panicked: waiters get nil
			s.mu.Lock()
			s.drop(e)
			s.mu.Unlock()
		}
		close(e.ready)
	}()
	e.tr = Record(app, seed)
	return e.tr, func() { s.release(e) }
}

// KeepTraces opens a bracket: while one is open, a trace nobody holds
// stays live until the next miss, so a later holder replays it instead
// of recording it again. Closing the last bracket drops every trace
// nobody holds, so a process between brackets holds only the traces in
// use.
func KeepTraces() (release func()) {
	s := &traces
	s.mu.Lock()
	s.brackets++
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		if s.brackets--; s.brackets == 0 {
			s.dropUnheld()
		}
		s.mu.Unlock()
	}
}

// release ends one hold of e.
func (s *traceStore) release(e *storedTrace) {
	s.mu.Lock()
	if e.holders--; e.holders == 0 && s.brackets == 0 {
		s.drop(e)
	}
	s.mu.Unlock()
}

// drop removes e from the store and returns its bytes to the budget;
// it is a no-op once e is gone.
func (s *traceStore) drop(e *storedTrace) {
	if i := slices.Index(s.live, e); i >= 0 {
		s.live = slices.Delete(s.live, i, i+1)
		s.held.Add(-e.size)
	}
}

// dropUnheld drops every trace nobody holds.
func (s *traceStore) dropUnheld() {
	s.live = slices.DeleteFunc(s.live, func(e *storedTrace) bool {
		if e.holders == 0 {
			s.held.Add(-e.size)
		}
		return e.holders == 0
	})
}

// ReserveTrace reserves size bytes of TraceBudget for memory held
// outside the store, reporting false (reserving nothing) when they do
// not fit. The caller returns them with ReleaseTrace(size).
func ReserveTrace(size int64) bool {
	s := &traces
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.held.Load()+size > TraceBudget {
		return false
	}
	s.held.Add(size)
	return true
}

// ReleaseTrace returns size bytes reserved by ReserveTrace.
func ReleaseTrace(size int64) { traces.held.Add(-size) }

// TraceHeld returns the bytes of TraceBudget reserved right now.
func TraceHeld() int64 { return traces.held.Load() }

// TracesRecorded returns how many recordings HoldTrace has made in this
// process.
func TracesRecorded() int64 { return traces.recorded.Load() }

// Record generates the whole stream of (app, seed) once. The replay
// from any of its readers is instruction-for-instruction the stream
// NewGen(app, seed) produces. It panics on an invalid definition,
// exactly as NewGen would.
func Record(app App, seed uint64) *Trace {
	g := NewGen(app, seed)
	app.Phases = slices.Clone(app.Phases)
	t := &Trace{
		app:    app,
		seed:   seed,
		instrs: make([]isa.Instr, app.TotalInstrs()),
		ends:   make([]int64, len(app.Phases)),
	}
	var end int64
	for i, p := range app.Phases {
		end += p.Instrs
		t.ends[i] = end
	}
	for off := 0; off < len(t.instrs); {
		off += g.Next(t.instrs[off:])
	}
	return t
}

// Of reports whether t was recorded from app's definition and seed,
// that is, whether its replay is the stream NewGen(app, seed) produces.
func (t *Trace) Of(app App, seed uint64) bool {
	return t.seed == seed && t.app.Equal(app)
}

// Reader returns a replay positioned at the start of the stream.
func (t *Trace) Reader() *TraceReader { return &TraceReader{t: t} }

// TraceReader replays a Trace with Gen's reading semantics: Next
// returns exactly the chunks Gen.Next would (never across a phase
// boundary, 0 only once the stream is exhausted), and Done and
// PhaseIndex answer as Gen's do after the same calls. A reader is not
// safe for concurrent use; take one per simulation.
type TraceReader struct {
	t     *Trace
	pos   int64
	phase int
}

// Next fills buf with up to len(buf) instructions of the current phase
// and returns how many were copied; 0 means the stream is exhausted.
func (r *TraceReader) Next(buf []isa.Instr) int {
	end := r.t.ends[r.phase]
	n := end - r.pos
	if n > int64(len(buf)) {
		n = int64(len(buf))
	}
	copy(buf, r.t.instrs[r.pos:r.pos+n])
	r.pos += n
	if r.pos == end && r.phase < len(r.t.ends)-1 {
		r.phase++
	}
	return int(n)
}

// Done reports whether the stream is exhausted.
func (r *TraceReader) Done() bool { return r.pos == int64(len(r.t.instrs)) }

// PhaseIndex returns the index of the phase the next instruction
// belongs to, or len(phases)-1 once the stream is exhausted.
func (r *TraceReader) PhaseIndex() int { return r.phase }

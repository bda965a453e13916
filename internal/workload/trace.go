package workload

import (
	"slices"
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
// process, whoever records them (the oracle's cold sweep, the figure
// harness's policy runs): one or two full-scale suite apps' traces
// (57–122 MB each) fit at once; x264's (288 MB) never does, and its
// users generate the stream instead.
const TraceBudget = 256 << 20

// traceHeld is the bytes reserved by live traces.
var traceHeld atomic.Int64

// ReserveTrace reserves size bytes of TraceBudget, reporting false
// (reserving nothing) when they do not fit. The caller releases a
// successful reservation with ReleaseTrace(size) once it drops the
// trace.
func ReserveTrace(size int64) bool {
	for {
		held := traceHeld.Load()
		if held+size > TraceBudget {
			return false
		}
		if traceHeld.CompareAndSwap(held, held+size) {
			return true
		}
	}
}

// ReleaseTrace returns size reserved bytes to TraceBudget.
func ReleaseTrace(size int64) { traceHeld.Add(-size) }

// TraceHeld returns the bytes of TraceBudget reserved right now.
func TraceHeld() int64 { return traceHeld.Load() }

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

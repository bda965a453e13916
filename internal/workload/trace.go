package workload

import (
	"unsafe"

	"cash/internal/isa"
)

// instrBytes is the in-memory size of one recorded instruction.
const instrBytes = int64(unsafe.Sizeof(isa.Instr{}))

// Trace is an application's whole dynamic instruction stream for one
// seed, generated once and replayed any number of times. It is
// read-only after Record returns, so concurrent readers may share it.
type Trace struct {
	instrs []isa.Instr
	ends   []int64 // ends[i]: stream offset one past phase i
}

// TraceBytes returns the memory a Trace of app holds, so a caller can
// budget for it before recording.
func TraceBytes(app App) int64 { return app.TotalInstrs() * instrBytes }

// Record generates the whole stream of (app, seed) once. The replay
// from any of its readers is instruction-for-instruction the stream
// NewGen(app, seed) produces. It panics on an invalid definition,
// exactly as NewGen would.
func Record(app App, seed uint64) *Trace {
	g := NewGen(app, seed)
	t := &Trace{
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

// Reader returns a replay positioned at the start of the stream.
func (t *Trace) Reader() *TraceReader { return &TraceReader{t: t} }

// TraceReader replays a Trace. Its Next returns exactly the chunks
// Gen.Next would: never across a phase boundary, and 0 only once the
// stream is exhausted. A reader is not safe for concurrent use; take
// one per simulation.
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

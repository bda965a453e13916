package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed layer call made from this package.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = a root
	Group  int    `json:"group"`  // spans of one cell or one request share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run
// ends. A nil *tracer records nothing, so untraced passes run the same
// code with no spans.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, group int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Group: group, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// mark returns the number of spans so far; spansSince(mark) then
// selects the spans of one pass. Both read as empty on a nil tracer.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) spansSince(mark int) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...)
}

// dump writes every span as JSON lines.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// breakdown folds spans into per-name self time: a span's duration
// minus the part of it its children cover. Roots are the outermost
// spans (a pass, a setup, a connection's loop): their durations sum to
// the traced wall, and so does the sum of every span's self time.
type breakdown struct {
	Self  map[string]float64 // seconds, by span name
	Total map[string]float64 // seconds, by span name, children included
	Count map[string]int
	Roots float64 // seconds covered by root spans
}

func breakdownOf(spans []span) (breakdown, error) {
	b := breakdown{Self: map[string]float64{}, Total: map[string]float64{}, Count: map[string]int{}}
	children := make(map[int][]span)
	for _, s := range spans {
		if s.End < s.Start {
			return b, fmt.Errorf("span %d (%s) never ended", s.ID, s.Name)
		}
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		d := s.End - s.Start
		self := d - covered(s, children[s.ID])
		b.Self[s.Name] += float64(self) / 1e9
		b.Total[s.Name] += float64(d) / 1e9
		b.Count[s.Name]++
		if s.Parent == 0 {
			b.Roots += float64(d) / 1e9
		}
	}
	return b, nil
}

// covered is how much of parent's interval the union of its children
// covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum int64
	lo, hi := kids[0].Start, kids[0].End
	for _, k := range kids[1:] {
		if k.Start > hi {
			sum += hi - lo
			lo, hi = k.Start, k.End
		} else if k.End > hi {
			hi = k.End
		}
	}
	sum += hi - lo
	if span := parent.End - parent.Start; sum > span {
		return span
	}
	return sum
}

// sumSelf is the total self time over every span name.
func (b breakdown) sumSelf() float64 {
	var s float64
	for _, v := range b.Self {
		s += v
	}
	return s
}

// checkIdentity verifies that self times add up to the traced wall.
func (b breakdown) checkIdentity() error {
	if diff := b.sumSelf() - b.Roots; diff > 1e-6 || diff < -1e-6 {
		return fmt.Errorf("trace: self times sum to %.9fs but the roots cover %.9fs", b.sumSelf(), b.Roots)
	}
	return nil
}

// tracedRun is a traced run's passes: untraced and traced passes
// alternate, so host drift hits both alike and their walls give the
// tracing overhead.
type tracedRun struct {
	Plain, Traced []float64 // pass walls, seconds
	Index         []int     // pass index of each traced pass
	Spans         [][]span  // spans of each traced pass
}

// alternate runs pass for d, and at least min times and once each
// untraced and traced; pass(i, t) traces into t when it is not nil and returns the
// wall of its measured part.
func alternate(d time.Duration, min int, tr *tracer, pass func(i int, t *tracer) (float64, error)) (tracedRun, error) {
	var r tracedRun
	start := time.Now()
	for i := 0; i < max(min, 2) || time.Since(start) < d; i++ {
		var t *tracer
		if i%2 == 1 {
			t = tr
		}
		mark := tr.mark()
		wall, err := pass(i, t)
		if err != nil {
			return r, err
		}
		if t == nil {
			r.Plain = append(r.Plain, wall)
			continue
		}
		r.Traced = append(r.Traced, wall)
		r.Index = append(r.Index, i)
		r.Spans = append(r.Spans, tr.spansSince(mark))
	}
	return r, nil
}

// medianPass picks the traced pass of median wall and folds its spans,
// checking that its self times add up to its wall.
func (r tracedRun) medianPass() (pass int, b breakdown, err error) {
	k := medianIndex(r.Traced)
	b, err = breakdownOf(r.Spans[k])
	if err == nil {
		err = b.checkIdentity()
	}
	return r.Index[k], b, err
}

// overheadPct is the traced passes' median wall against the untraced
// ones'.
func (r tracedRun) overheadPct() float64 {
	return 100 * (median(r.Traced)/median(r.Plain) - 1)
}

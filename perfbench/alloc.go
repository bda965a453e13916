package main

import (
	"time"

	"cash/internal/alloc"
	"cash/internal/cashrt"
	"cash/internal/guard"
)

// decideStats accumulates the time spent inside allocator decisions.
type decideStats struct {
	N      int64
	D      time.Duration
	CashN  int64 // decisions made by a cashrt.Runtime
	CashD  time.Duration
	parent int // span the decisions nest under
	group  int
	tr     *tracer
}

// timedAllocator times every Decide of the allocator it wraps. It
// changes no decision: the wrapped allocator sees the same calls.
type timedAllocator struct {
	inner alloc.Allocator
	st    *decideStats
	cash  bool
}

func (a *timedAllocator) Name() string { return a.inner.Name() }

func (a *timedAllocator) Decide(prev []alloc.Observation, tau int64) alloc.Plan {
	id := a.st.tr.begin("alloc.decide", a.st.parent, a.st.group)
	t0 := time.Now()
	p := a.inner.Decide(prev, tau)
	d := time.Since(t0)
	a.st.tr.end(id)
	a.st.N++
	a.st.D += d
	if a.cash {
		a.st.CashN++
		a.st.CashD += d
	}
	return p
}

// guardedAllocator keeps the guardrail counters visible to the
// experiment engine, which reads them from allocators that carry them.
type guardedAllocator struct {
	*timedAllocator
	g interface{ GuardStats() guard.Stats }
}

func (a guardedAllocator) GuardStats() guard.Stats { return a.g.GuardStats() }

// timed wraps p so that its decisions are counted into st.
func timed(p alloc.Allocator, st *decideStats) alloc.Allocator {
	_, isCash := p.(*cashrt.Runtime)
	t := &timedAllocator{inner: p, st: st, cash: isCash}
	if g, ok := p.(interface{ GuardStats() guard.Stats }); ok {
		return guardedAllocator{timedAllocator: t, g: g}
	}
	return t
}

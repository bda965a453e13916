// Package fault models hardware failures on the CASH fabric. The
// paper's central hardware argument (§III-A) is that a homogeneous
// array of interchangeable Slices makes reallocation cheap; the same
// property makes a failed tile survivable — the chip can remap the
// affected virtual core onto an equivalent spare, or degrade it to a
// smaller configuration when no spare exists. This package supplies
// the *when and where* of failures: deterministic, seeded schedules of
// permanent and transient (self-repairing) tile faults, and an
// Injector the experiment engine ticks each control quantum to learn
// which faults are due.
//
// Everything here is bit-for-bit deterministic: the same Spec produces
// the same Schedule on every run and platform, and an Injector replays
// a Schedule in a fixed order, so experiment results with fault
// injection enabled are exactly reproducible.
package fault

import (
	"fmt"
	"sort"

	"cash/internal/noc"
	"cash/internal/splitmix"
)

// Event is one scheduled tile fault.
type Event struct {
	// Cycle is when the fault strikes.
	Cycle int64
	// Pos is the fabric tile the fault hits.
	Pos noc.Coord
	// Transient marks a fault that self-repairs (a bit flip, a thermal
	// excursion) rather than a permanent failure.
	Transient bool
	// RepairAfter is how many cycles after the strike a transient fault
	// heals. Ignored for permanent faults.
	RepairAfter int64
}

// Schedule is a set of fault events, not necessarily sorted.
type Schedule struct {
	Events []Event
}

// Validate rejects events with negative times or repair delays.
func (s Schedule) Validate() error {
	for i, e := range s.Events {
		if e.Cycle < 0 {
			return fmt.Errorf("fault: event %d strikes at negative cycle %d", i, e.Cycle)
		}
		if e.Transient && e.RepairAfter <= 0 {
			return fmt.Errorf("fault: transient event %d has non-positive repair delay %d", i, e.RepairAfter)
		}
	}
	return nil
}

// Spec parameterizes schedule generation. The zero value of optional
// fields selects the defaults noted on each.
type Spec struct {
	// Rate is the expected number of fault strikes per million cycles.
	// Required (a zero rate yields an empty schedule).
	Rate float64
	// Horizon bounds the schedule: no strike occurs at or after it.
	Horizon int64
	// Width, Height are the fabric dimensions faults land on.
	Width, Height int
	// Seed drives the generator.
	Seed uint64
	// TransientFrac is the probability a strike is transient
	// (default 0.25).
	TransientFrac float64
	// MeanRepair is the mean self-repair delay of transient faults in
	// cycles (default 1_500_000).
	MeanRepair int64
}

func (s Spec) withDefaults() Spec {
	if s.TransientFrac == 0 {
		s.TransientFrac = 0.25
	}
	if s.MeanRepair == 0 {
		s.MeanRepair = 1_500_000
	}
	return s
}

// Generate builds a deterministic schedule: strike inter-arrival times
// are exponential with mean 1e6/Rate cycles, positions are uniform over
// the fabric, and a TransientFrac share of strikes self-repair after an
// exponential delay around MeanRepair.
func Generate(spec Spec) (Schedule, error) {
	spec = spec.withDefaults()
	if spec.Rate < 0 {
		return Schedule{}, fmt.Errorf("fault: negative rate %g", spec.Rate)
	}
	if spec.Width <= 0 || spec.Height <= 0 {
		return Schedule{}, fmt.Errorf("fault: invalid fabric dimensions %dx%d", spec.Width, spec.Height)
	}
	if spec.Horizon < 0 {
		return Schedule{}, fmt.Errorf("fault: negative horizon %d", spec.Horizon)
	}
	var sch Schedule
	if spec.Rate == 0 || spec.Horizon == 0 {
		return sch, nil
	}
	r := splitmix.New(spec.Seed)
	mean := 1e6 / spec.Rate
	cycle := int64(0)
	for {
		cycle += r.ExpInt64(mean)
		if cycle >= spec.Horizon {
			break
		}
		e := Event{
			Cycle: cycle,
			Pos: noc.Coord{
				X: int(r.Intn(int64(spec.Width))),
				Y: int(r.Intn(int64(spec.Height))),
			},
		}
		if r.Float64() < spec.TransientFrac {
			e.Transient = true
			e.RepairAfter = r.ExpInt64(float64(spec.MeanRepair))
		}
		sch.Events = append(sch.Events, e)
	}
	return sch, nil
}

// MustGenerate is Generate for statically-valid specs.
func MustGenerate(spec Spec) Schedule {
	s, err := Generate(spec)
	if err != nil {
		panic(err)
	}
	return s
}

// Op says what an injector tick asks the fabric to do.
type Op uint8

const (
	// OpFail marks a tile failed.
	OpFail Op = iota
	// OpRepair returns a tile to service.
	OpRepair
)

// String names the operation.
func (o Op) String() string {
	if o == OpFail {
		return "fail"
	}
	return "repair"
}

// Tick is one due fault action, delivered by Injector.Advance.
type Tick struct {
	// Cycle is when the action was scheduled (≤ the Advance clock).
	Cycle int64
	// Pos is the affected tile.
	Pos noc.Coord
	// Op is what happens to it.
	Op Op
	// Transient marks actions belonging to a self-repairing fault.
	Transient bool
}

// Injector replays a Schedule against a cycle clock. The experiment
// engine calls Advance with the simulator clock once per control
// quantum (and at step boundaries); Advance returns every strike and
// self-repair that has come due, in a fixed deterministic order.
type Injector struct {
	strikes []Event // sorted by (Cycle, Y, X)
	next    int
	repairs []Tick // pending self-repairs, sorted the same way
}

// NewInjector builds an injector over a copy of the schedule.
func NewInjector(s Schedule) (*Injector, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{strikes: append([]Event(nil), s.Events...)}
	sort.SliceStable(inj.strikes, func(i, j int) bool {
		return tickLess(inj.strikes[i].Cycle, inj.strikes[i].Pos, inj.strikes[j].Cycle, inj.strikes[j].Pos)
	})
	return inj, nil
}

func tickLess(c1 int64, p1 noc.Coord, c2 int64, p2 noc.Coord) bool {
	if c1 != c2 {
		return c1 < c2
	}
	if p1.Y != p2.Y {
		return p1.Y < p2.Y
	}
	return p1.X < p2.X
}

// Pending reports whether any strikes or repairs remain to be delivered.
func (inj *Injector) Pending() bool {
	return inj.next < len(inj.strikes) || len(inj.repairs) > 0
}

// Advance returns every action due at or before now, ordered by
// scheduled cycle (repairs before strikes on ties, so a tile that heals
// and re-fails in the same window ends up failed). Transient strikes
// automatically enqueue their matching repair.
func (inj *Injector) Advance(now int64) []Tick {
	var due []Tick
	// Strikes first so that short transients enqueue their repair before
	// the due-repair drain below — a repair falling inside this window is
	// delivered now rather than a quantum late.
	for inj.next < len(inj.strikes) && inj.strikes[inj.next].Cycle <= now {
		e := inj.strikes[inj.next]
		inj.next++
		due = append(due, Tick{Cycle: e.Cycle, Pos: e.Pos, Op: OpFail, Transient: e.Transient})
		if e.Transient {
			inj.scheduleRepair(Tick{Cycle: e.Cycle + e.RepairAfter, Pos: e.Pos, Op: OpRepair, Transient: true})
		}
	}
	for len(inj.repairs) > 0 && inj.repairs[0].Cycle <= now {
		due = append(due, inj.repairs[0])
		inj.repairs = inj.repairs[1:]
	}
	sort.SliceStable(due, func(i, j int) bool {
		if due[i].Cycle != due[j].Cycle {
			return due[i].Cycle < due[j].Cycle
		}
		if due[i].Op != due[j].Op {
			return due[i].Op == OpRepair
		}
		return tickLess(due[i].Cycle, due[i].Pos, due[j].Cycle, due[j].Pos)
	})
	return due
}

// scheduleRepair inserts a repair keeping the queue sorted.
func (inj *Injector) scheduleRepair(t Tick) {
	i := sort.Search(len(inj.repairs), func(i int) bool {
		return !tickLess(inj.repairs[i].Cycle, inj.repairs[i].Pos, t.Cycle, t.Pos)
	})
	inj.repairs = append(inj.repairs, Tick{})
	copy(inj.repairs[i+1:], inj.repairs[i:])
	inj.repairs[i] = t
}

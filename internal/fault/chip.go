package fault

import (
	"fmt"
	"sort"

	"cash/internal/splitmix"
)

// Chip-level faults. Where Event models a tile strike inside one chip's
// fabric, ChipEvent models whole-chip failure modes as the fleet
// control plane sees them: a chip that crashes (loses all in-flight
// work), hangs (stops executing and heartbeating, then resumes), or
// keeps executing while its heartbeats are lost (the network partition
// that manufactures false failure suspicions). Schedules are seeded and
// bit-for-bit deterministic, exactly like tile schedules, so fleet runs
// replay byte-identically.

// ChipFaultKind classifies a whole-chip fault.
type ChipFaultKind uint8

const (
	// ChipCrash halts the chip; every in-flight attempt is lost. With
	// Duration > 0 the chip reboots empty after that many ticks;
	// Duration 0 is a permanent loss.
	ChipCrash ChipFaultKind = iota
	// ChipHang stops execution and heartbeats for Duration ticks, then
	// resumes both with in-flight work intact.
	ChipHang
	// ChipHBLoss suppresses heartbeats for Duration ticks while the chip
	// keeps executing — the partition case that produces false
	// suspicions and orphaned (late, duplicate) result deliveries.
	ChipHBLoss
)

// String names the fault kind.
func (k ChipFaultKind) String() string {
	switch k {
	case ChipCrash:
		return "crash"
	case ChipHang:
		return "hang"
	case ChipHBLoss:
		return "hbloss"
	}
	return fmt.Sprintf("chipfault(%d)", k)
}

// ChipEvent is one scheduled whole-chip fault.
type ChipEvent struct {
	// Tick is the fleet tick the fault strikes at.
	Tick int64
	// Chip is the affected chip index.
	Chip int
	// Kind is what happens to it.
	Kind ChipFaultKind
	// Duration is the outage length in ticks (see the kind constants;
	// 0 on a crash means permanent).
	Duration int64
}

// ChipSchedule is a set of chip fault events, not necessarily sorted.
type ChipSchedule struct {
	Events []ChipEvent
}

// Validate rejects events with negative times or durations, chip
// indices outside [0, chips), and unknown kinds. Hang and heartbeat-
// loss events must have a positive duration (a zero-length outage is
// not observable and almost certainly a caller bug).
func (s ChipSchedule) Validate(chips int) error {
	for i, e := range s.Events {
		if e.Tick < 0 {
			return fmt.Errorf("fault: chip event %d strikes at negative tick %d", i, e.Tick)
		}
		if e.Chip < 0 || e.Chip >= chips {
			return fmt.Errorf("fault: chip event %d hits chip %d outside fleet of %d", i, e.Chip, chips)
		}
		if e.Duration < 0 {
			return fmt.Errorf("fault: chip event %d has negative duration %d", i, e.Duration)
		}
		if e.Kind != ChipCrash && e.Duration == 0 {
			return fmt.Errorf("fault: %s event %d has zero duration", e.Kind, i)
		}
		if e.Kind > ChipHBLoss {
			return fmt.Errorf("fault: chip event %d has unknown kind %d", i, e.Kind)
		}
	}
	return nil
}

// KillK returns the canonical chaos schedule: crash k of chips chips at
// the given tick, spread evenly across the fleet so survivors remain on
// both sides of every victim. k is clamped to chips-1 — a schedule must
// leave at least one survivor or no re-execution is possible.
func KillK(chips, k int, tick int64) ChipSchedule {
	if k >= chips {
		k = chips - 1
	}
	var s ChipSchedule
	if k <= 0 || chips <= 0 {
		return s
	}
	for i := 0; i < k; i++ {
		s.Events = append(s.Events, ChipEvent{
			Tick: tick, Chip: i * chips / k, Kind: ChipCrash,
		})
	}
	return s
}

// ChipSpec parameterizes random chip-fault generation. Zero values of
// optional fields select the defaults noted on each.
type ChipSpec struct {
	// Chips is the fleet size faults land on. Required.
	Chips int
	// Horizon bounds the schedule: no fault strikes at or after it.
	Horizon int64
	// Rate is the expected number of faults per 1000 chip-ticks.
	// Required (zero yields an empty schedule).
	Rate float64
	// Seed drives the generator.
	Seed uint64
	// CrashFrac and HangFrac apportion fault kinds; the remainder are
	// heartbeat losses (defaults 0.3 and 0.35).
	CrashFrac, HangFrac float64
	// MeanOutage is the mean hang/heartbeat-loss duration in ticks
	// (default 20).
	MeanOutage int64
	// RebootFrac is the probability a crash reboots rather than being
	// permanent (default 0.5); MeanReboot is the mean reboot delay in
	// ticks (default 60).
	RebootFrac float64
	MeanReboot int64
}

func (s ChipSpec) withDefaults() ChipSpec {
	if s.CrashFrac == 0 {
		s.CrashFrac = 0.3
	}
	if s.HangFrac == 0 {
		s.HangFrac = 0.35
	}
	if s.MeanOutage == 0 {
		s.MeanOutage = 20
	}
	if s.RebootFrac == 0 {
		s.RebootFrac = 0.5
	}
	if s.MeanReboot == 0 {
		s.MeanReboot = 60
	}
	return s
}

// GenerateChipFaults draws a deterministic chip-fault schedule:
// fleet-wide inter-arrival times are exponential with mean
// 1000/(Rate·Chips) ticks, victims are uniform, kinds follow the
// configured fractions and outage lengths are exponential around their
// means. The same spec always yields the same schedule.
func GenerateChipFaults(spec ChipSpec) (ChipSchedule, error) {
	spec = spec.withDefaults()
	if spec.Chips <= 0 {
		return ChipSchedule{}, fmt.Errorf("fault: invalid fleet size %d", spec.Chips)
	}
	if spec.Rate < 0 {
		return ChipSchedule{}, fmt.Errorf("fault: negative chip fault rate %g", spec.Rate)
	}
	if spec.Horizon < 0 {
		return ChipSchedule{}, fmt.Errorf("fault: negative horizon %d", spec.Horizon)
	}
	var sch ChipSchedule
	if spec.Rate == 0 || spec.Horizon == 0 {
		return sch, nil
	}
	r := splitmix.New(spec.Seed)
	mean := 1000 / (spec.Rate * float64(spec.Chips))
	tick := int64(0)
	for {
		tick += r.ExpInt64(mean)
		if tick >= spec.Horizon {
			break
		}
		e := ChipEvent{Tick: tick, Chip: int(r.Intn(int64(spec.Chips)))}
		switch p := r.Float64(); {
		case p < spec.CrashFrac:
			e.Kind = ChipCrash
			if r.Float64() < spec.RebootFrac {
				e.Duration = r.ExpInt64(float64(spec.MeanReboot))
			}
		case p < spec.CrashFrac+spec.HangFrac:
			e.Kind = ChipHang
			e.Duration = r.ExpInt64(float64(spec.MeanOutage))
		default:
			e.Kind = ChipHBLoss
			e.Duration = r.ExpInt64(float64(spec.MeanOutage))
		}
		sch.Events = append(sch.Events, e)
	}
	return sch, nil
}

// ChipInjector replays a ChipSchedule against the fleet tick clock,
// delivering due events in deterministic (Tick, Chip, Kind) order.
type ChipInjector struct {
	events []ChipEvent
	next   int
}

// NewChipInjector builds an injector over a sorted copy of the schedule.
func NewChipInjector(s ChipSchedule, chips int) (*ChipInjector, error) {
	if err := s.Validate(chips); err != nil {
		return nil, err
	}
	inj := &ChipInjector{events: append([]ChipEvent(nil), s.Events...)}
	sort.SliceStable(inj.events, func(i, j int) bool {
		a, b := inj.events[i], inj.events[j]
		if a.Tick != b.Tick {
			return a.Tick < b.Tick
		}
		if a.Chip != b.Chip {
			return a.Chip < b.Chip
		}
		return a.Kind < b.Kind
	})
	return inj, nil
}

// Pending reports whether undelivered events remain.
func (inj *ChipInjector) Pending() bool { return inj.next < len(inj.events) }

// Advance returns every event due at or before now.
func (inj *ChipInjector) Advance(now int64) []ChipEvent {
	var due []ChipEvent
	for inj.next < len(inj.events) && inj.events[inj.next].Tick <= now {
		due = append(due, inj.events[inj.next])
		inj.next++
	}
	return due
}

package fault

import (
	"reflect"
	"testing"

	"cash/internal/noc"
)

func TestGenerateDeterministic(t *testing.T) {
	spec := Spec{Rate: 2, Horizon: 10_000_000, Width: 8, Height: 8, Seed: 11}
	a := MustGenerate(spec)
	b := MustGenerate(spec)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec must generate identical schedules")
	}
	if len(a.Events) == 0 {
		t.Fatal("a 2/Mcycle rate over 10M cycles should produce strikes")
	}
	spec.Seed = 12
	c := MustGenerate(spec)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds should generate different schedules")
	}
	for i, e := range a.Events {
		if e.Cycle < 0 || e.Cycle >= spec.Horizon {
			t.Errorf("event %d at cycle %d outside horizon", i, e.Cycle)
		}
		if e.Pos.X < 0 || e.Pos.X >= 8 || e.Pos.Y < 0 || e.Pos.Y >= 8 {
			t.Errorf("event %d at %v outside the fabric", i, e.Pos)
		}
		if e.Transient && e.RepairAfter <= 0 {
			t.Errorf("transient event %d without repair delay", i)
		}
	}
}

func TestGenerateRateScales(t *testing.T) {
	lo := MustGenerate(Spec{Rate: 0.5, Horizon: 40_000_000, Width: 8, Height: 8, Seed: 3})
	hi := MustGenerate(Spec{Rate: 5, Horizon: 40_000_000, Width: 8, Height: 8, Seed: 3})
	if len(hi.Events) <= len(lo.Events) {
		t.Errorf("10x the rate should strike more often: %d vs %d", len(hi.Events), len(lo.Events))
	}
	empty := MustGenerate(Spec{Rate: 0, Horizon: 40_000_000, Width: 8, Height: 8})
	if len(empty.Events) != 0 {
		t.Error("zero rate must yield an empty schedule")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Spec{Rate: -1, Horizon: 1, Width: 2, Height: 2}); err == nil {
		t.Error("negative rate must fail")
	}
	if _, err := Generate(Spec{Rate: 1, Horizon: 1, Width: 0, Height: 2}); err == nil {
		t.Error("zero width must fail")
	}
	if _, err := Generate(Spec{Rate: 1, Horizon: -1, Width: 2, Height: 2}); err == nil {
		t.Error("negative horizon must fail")
	}
}

func TestScheduleValidate(t *testing.T) {
	bad := Schedule{Events: []Event{{Cycle: -1}}}
	if bad.Validate() == nil {
		t.Error("negative cycle must fail validation")
	}
	bad = Schedule{Events: []Event{{Cycle: 1, Transient: true}}}
	if bad.Validate() == nil {
		t.Error("transient without repair delay must fail validation")
	}
	if _, err := NewInjector(bad); err == nil {
		t.Error("injector must reject an invalid schedule")
	}
}

func TestInjectorOrderAndRepairs(t *testing.T) {
	sch := Schedule{Events: []Event{
		{Cycle: 500, Pos: noc.Coord{X: 1, Y: 1}},
		{Cycle: 100, Pos: noc.Coord{X: 0, Y: 0}, Transient: true, RepairAfter: 250},
		{Cycle: 100, Pos: noc.Coord{X: 2, Y: 0}},
	}}
	inj := mustInjector(sch)
	if !inj.Pending() {
		t.Fatal("injector should have pending events")
	}

	due := inj.Advance(99)
	if len(due) != 0 {
		t.Fatalf("nothing is due before cycle 100, got %v", due)
	}
	due = inj.Advance(400)
	// Strikes at 100 (two, X order), then the transient repair at 350.
	want := []Tick{
		{Cycle: 100, Pos: noc.Coord{X: 0, Y: 0}, Op: OpFail, Transient: true},
		{Cycle: 100, Pos: noc.Coord{X: 2, Y: 0}, Op: OpFail},
		{Cycle: 350, Pos: noc.Coord{X: 0, Y: 0}, Op: OpRepair, Transient: true},
	}
	if !reflect.DeepEqual(due, want) {
		t.Fatalf("Advance(400) = %v, want %v", due, want)
	}
	due = inj.Advance(1000)
	if len(due) != 1 || due[0].Cycle != 500 || due[0].Op != OpFail {
		t.Fatalf("Advance(1000) = %v, want the cycle-500 strike", due)
	}
	if inj.Pending() {
		t.Error("all events delivered; nothing should be pending")
	}
	if got := inj.Advance(1 << 40); len(got) != 0 {
		t.Errorf("drained injector returned %v", got)
	}
}

func TestInjectorRepairBeforeStrikeOnTie(t *testing.T) {
	// A tile that heals and re-fails at the same cycle must end failed:
	// the repair is delivered first.
	sch := Schedule{Events: []Event{
		{Cycle: 100, Pos: noc.Coord{X: 0, Y: 0}, Transient: true, RepairAfter: 100},
		{Cycle: 200, Pos: noc.Coord{X: 0, Y: 0}},
	}}
	inj := mustInjector(sch)
	due := inj.Advance(200)
	if len(due) != 3 {
		t.Fatalf("want 3 actions, got %v", due)
	}
	if due[1].Op != OpRepair || due[2].Op != OpFail {
		t.Errorf("tie at cycle 200 must order repair before strike: %v", due)
	}
}

func TestInjectorDeterministicReplay(t *testing.T) {
	sch := MustGenerate(Spec{Rate: 3, Horizon: 20_000_000, Width: 16, Height: 16, Seed: 9})
	replay := func() []Tick {
		inj := mustInjector(sch)
		var all []Tick
		for now := int64(0); now <= 25_000_000; now += 100_000 {
			all = append(all, inj.Advance(now)...)
		}
		return all
	}
	a, b := replay(), replay()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("injector replay must be deterministic")
	}
	if len(a) == 0 {
		t.Fatal("replay produced no actions")
	}
}

// mustInjector is NewInjector for statically-valid schedules.
func mustInjector(s Schedule) *Injector {
	inj, err := NewInjector(s)
	if err != nil {
		panic(err)
	}
	return inj
}

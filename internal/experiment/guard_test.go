package experiment

import (
	"errors"
	"math"
	"testing"

	"cash/internal/alloc"
	"cash/internal/cashrt"
	"cash/internal/cost"
	"cash/internal/ssim"
	"cash/internal/vcore"
)

func TestOptsValidation(t *testing.T) {
	bad := []Opts{
		{Target: math.NaN()},
		{Target: math.Inf(1)},
		{Target: -1},
		{Target: 0.5, Tau: -1},
		{Target: 0.5, Tolerance: math.NaN()},
		{Target: 0.5, Tolerance: -0.1},
		{Target: 0.5, Tolerance: 1.5},
		{Target: 0.5, MaxQuanta: -1},
		{Target: 0.5, FabricWidth: -1},
	}
	for i, o := range bad {
		if _, err := Run(tinyApp(), alloc.Static{Cfg: vcore.Min()}, o); err == nil {
			t.Errorf("case %d (%+v): Run succeeded, want error", i, o)
		}
	}
}

func TestServerOptsValidation(t *testing.T) {
	bad := []ServerOpts{
		{Opts: Opts{Tolerance: math.NaN()}},
		{Opts: Opts{Target: math.NaN()}},
		{TargetLatencyCycles: -1},
		{Horizon: -1},
	}
	for i, o := range bad {
		if _, err := RunServer(alloc.Static{Cfg: vcore.Min()}, o); err == nil {
			t.Errorf("case %d: RunServer succeeded, want error", i)
		}
	}
}

func TestEpochHookRunsAndAborts(t *testing.T) {
	calls := 0
	opts := Opts{Target: 0.1, MaxQuanta: 10, EpochHook: func(sim *ssim.Sim, q int) error {
		calls++
		if sim == nil || q != calls {
			t.Fatalf("hook called with sim=%v quantum=%d (call %d)", sim, q, calls)
		}
		return sim.CheckInvariants()
	}}
	if _, err := Run(tinyApp(), alloc.Static{Cfg: vcore.Min()}, opts); err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("epoch hook never ran")
	}

	sentinel := errors.New("stop here")
	opts.EpochHook = func(*ssim.Sim, int) error { return sentinel }
	if _, err := Run(tinyApp(), alloc.Static{Cfg: vcore.Min()}, opts); !errors.Is(err, sentinel) {
		t.Fatalf("hook error not propagated: %v", err)
	}
}

func TestResultCarriesGuardStats(t *testing.T) {
	rt := cashrt.MustNew(0.3, cost.Default(), cashrt.Options{Seed: 1, Guardrails: true})
	res, err := Run(tinyApp(), rt, Opts{Target: 0.3, MaxQuanta: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Guard.Epochs == 0 {
		t.Fatalf("guarded run recorded no guard epochs: %+v", res.Guard)
	}
	// An unguarded policy leaves the stats zero.
	res2, err := Run(tinyApp(), alloc.Static{Cfg: vcore.Min()}, Opts{Target: 0.3, MaxQuanta: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Guard.Epochs != 0 {
		t.Fatalf("static run carries guard stats: %+v", res2.Guard)
	}
}

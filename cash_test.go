package cash

import (
	"bytes"
	"strings"
	"testing"
)

func TestConfigSpaceAndBounds(t *testing.T) {
	if len(ConfigSpace()) != 64 {
		t.Fatalf("configuration space has %d points, want 64", len(ConfigSpace()))
	}
	if MinConfig().Slices != 1 || MinConfig().L2KB != 64 {
		t.Errorf("MinConfig = %s", MinConfig())
	}
	if MaxConfig().Slices != 8 || MaxConfig().L2KB != 8192 {
		t.Errorf("MaxConfig = %s", MaxConfig())
	}
}

func TestBenchmarksSuite(t *testing.T) {
	if len(Benchmarks()) != 13 {
		t.Fatalf("suite has %d applications, want 13", len(Benchmarks()))
	}
	if _, ok := Benchmark("x264"); !ok {
		t.Error("x264 missing")
	}
	if _, ok := Benchmark("no-such-app"); ok {
		t.Error("unknown benchmark should not resolve")
	}
}

func TestNewSimulatorRuns(t *testing.T) {
	sim, err := NewSimulator(Config{Slices: 2, L2KB: 256})
	if err != nil {
		t.Fatal(err)
	}
	app, _ := Benchmark("hmmer")
	app = app.Scale(0.01)
	gen := NewGen(app, 42)
	instrs, cycles := sim.Run(gen, 10_000)
	if instrs != 10_000 || cycles <= 0 {
		t.Errorf("ran %d instrs in %d cycles", instrs, cycles)
	}
	if _, err := NewSimulator(Config{}); err == nil {
		t.Error("invalid configuration must fail")
	}
}

func TestEndToEndRuntimeRun(t *testing.T) {
	app, _ := Benchmark("hmmer")
	app = app.Scale(0.05)
	const target = 0.3
	rt, err := NewRuntime(target, RuntimeOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(app, rt, RunOptions{Target: target})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalInstrs != app.TotalInstrs() {
		t.Errorf("completed %d of %d instructions", res.TotalInstrs, app.TotalInstrs())
	}
	if res.TotalCost <= 0 {
		t.Error("a run must cost something")
	}
}

func TestConvexConstructor(t *testing.T) {
	cvx, err := NewConvex(0.5, func(c Config) float64 { return float64(c.Slices) })
	if err != nil {
		t.Fatal(err)
	}
	if cvx.Name() != "ConvexOptimization" {
		t.Errorf("Name = %q", cvx.Name())
	}
}

func TestReproduceTables(t *testing.T) {
	// Keep the oracle cache out of the user cache directory.
	t.Setenv("CASH_ORACLE_CACHE", "-")
	var buf bytes.Buffer
	if err := Reproduce(&buf, "table1", 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table I") {
		t.Errorf("table1 output missing header:\n%s", buf.String())
	}
	buf.Reset()
	if err := Reproduce(&buf, "table2", 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "distance*2+4") {
		t.Error("table2 must describe the L2 hit delay")
	}
	if err := Reproduce(&buf, "nonsense", 1); err == nil {
		t.Error("unknown artifact must fail")
	}
}

func TestReproduceOverhead(t *testing.T) {
	// Keep the oracle cache out of the user cache directory.
	t.Setenv("CASH_ORACLE_CACHE", "-")
	var buf bytes.Buffer
	if err := Reproduce(&buf, "overhead", 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Slice expansion", "register flush", "per iteration"} {
		if !strings.Contains(out, want) {
			t.Errorf("overhead report missing %q", want)
		}
	}
}

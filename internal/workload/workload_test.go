package workload

import (
	"math"
	"testing"
	"testing/quick"

	"cash/internal/isa"
)

func TestAllBenchmarksValidate(t *testing.T) {
	apps := Apps()
	if len(apps) != 13 {
		t.Fatalf("suite has %d applications, want 13 (§V-B)", len(apps))
	}
	for _, a := range apps {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

func TestX264HasTenPhases(t *testing.T) {
	x := x264App
	if len(x.Phases) != 10 {
		t.Fatalf("x264 has %d phases, want 10 (Fig 1)", len(x.Phases))
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		if _, ok := ByName(name); !ok {
			t.Errorf("ByName(%q) failed", name)
		}
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("ByName should reject unknown names")
	}
}

func TestMixNormalize(t *testing.T) {
	m := InstrMix{ALU: 2, Load: 1, Store: 1}.Normalize()
	if got := m.sum(); math.Abs(got-1) > 1e-12 {
		t.Errorf("normalized sum = %v, want 1", got)
	}
	if m.ALU != 0.5 {
		t.Errorf("ALU fraction = %v, want 0.5", m.ALU)
	}
	if empty := (InstrMix{}).Normalize(); empty.ALU != 1 {
		t.Errorf("empty mix should normalize to pure ALU, got %+v", empty)
	}
}

func TestMixValidate(t *testing.T) {
	if err := (InstrMix{ALU: -1}).Validate(); err == nil {
		t.Error("negative fraction must fail")
	}
	if err := (InstrMix{}).Validate(); err == nil {
		t.Error("empty mix must fail")
	}
}

func TestPhaseValidate(t *testing.T) {
	good := Apps()[0].Phases[0]
	if err := good.Validate(); err != nil {
		t.Fatalf("known-good phase fails: %v", err)
	}
	bad := []func(*Phase){
		func(p *Phase) { p.Instrs = 0 },
		func(p *Phase) { p.MeanDepDist = 0.5 },
		func(p *Phase) { p.WorkingSetKB = 0 },
		func(p *Phase) { p.HotSetKB = p.WorkingSetKB + 1 },
		func(p *Phase) { p.HotFrac = 1.5 },
		func(p *Phase) { p.Stride = 0 },
		func(p *Phase) { p.MispredictRate = -0.1 },
		func(p *Phase) { p.MidSetKB = -1 },
		func(p *Phase) { p.MidSetKB = p.WorkingSetKB },
		func(p *Phase) { p.MidFrac = 2 },
	}
	for i, mut := range bad {
		p := good
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
}

func TestAppScale(t *testing.T) {
	app := x264App
	half := app.Scale(0.5)
	if half.TotalInstrs() < app.TotalInstrs()/3 || half.TotalInstrs() > app.TotalInstrs()*2/3 {
		t.Errorf("Scale(0.5): %d -> %d", app.TotalInstrs(), half.TotalInstrs())
	}
	tiny := app.Scale(1e-12)
	for _, p := range tiny.Phases {
		if p.Instrs < 1 {
			t.Error("scaled phases must keep at least one instruction")
		}
	}
}

func TestPhaseAt(t *testing.T) {
	app := App{Name: "t", Phases: []Phase{
		ph("a", 0.001, mixInt, 2, 64, 8, 0.5, 0, 64, 0),
		ph("b", 0.002, mixInt, 2, 64, 8, 0.5, 0, 64, 0),
	}}
	if app.PhaseAt(0) != 0 || app.PhaseAt(999) != 0 {
		t.Error("early instructions belong to phase 0")
	}
	if app.PhaseAt(1000) != 1 || app.PhaseAt(5000) != 1 {
		t.Error("later instructions belong to the last phase")
	}
}

func TestGenDeterminism(t *testing.T) {
	app := x264App.Scale(0.01)
	a, b := NewGen(app, 42), NewGen(app, 42)
	bufA := make([]isa.Instr, 257)
	bufB := make([]isa.Instr, 257)
	for i := 0; i < 50; i++ {
		na, nb := a.Next(bufA), b.Next(bufB)
		if na != nb {
			t.Fatalf("iteration %d: lengths differ %d vs %d", i, na, nb)
		}
		for j := 0; j < na; j++ {
			if bufA[j] != bufB[j] {
				t.Fatalf("instruction %d/%d differs: %v vs %v", i, j, bufA[j], bufB[j])
			}
		}
	}
	c := NewGen(app, 43)
	n := c.Next(bufA)
	d := NewGen(app, 42)
	m := d.Next(bufB)
	same := n == m
	if same {
		for j := 0; j < n; j++ {
			if bufA[j] != bufB[j] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds should produce different streams")
	}
}

func TestGenPhaseBoundaries(t *testing.T) {
	app := App{Name: "t", Phases: []Phase{
		ph("a", 0.0005, mixInt, 2, 64, 8, 0.5, 0, 64, 0),
		ph("b", 0.0005, mixInt, 2, 64, 8, 0.5, 0, 64, 0),
	}}
	g := NewGen(app, 1)
	buf := make([]isa.Instr, 2000)
	n := g.Next(buf)
	if int64(n) != app.Phases[0].Instrs {
		t.Errorf("first block = %d instrs, want exactly the phase length %d", n, app.Phases[0].Instrs)
	}
	if g.PhaseIndex() != 1 {
		t.Errorf("after phase 0 drains, PhaseIndex = %d, want 1", g.PhaseIndex())
	}
	total := int64(n)
	for {
		k := g.Next(buf)
		if k == 0 {
			break
		}
		total += int64(k)
	}
	if total != app.TotalInstrs() {
		t.Errorf("emitted %d instructions, want %d", total, app.TotalInstrs())
	}
	if !g.Done() {
		t.Error("generator should be done")
	}
	g.Reset()
	if g.Done() || g.total != 0 {
		t.Error("Reset should rewind")
	}
}

func TestGenAddressesWithinRegions(t *testing.T) {
	app := x264App.Scale(0.01)
	g := NewGen(app, 9)
	buf := make([]isa.Instr, 512)
	for {
		pi := g.PhaseIndex()
		n := g.Next(buf)
		if n == 0 {
			break
		}
		rg := app.Phases[pi].Regions(pi)
		for _, in := range buf[:n] {
			if in.Op == isa.OpLoad || in.Op == isa.OpStore {
				inHot := in.Addr >= rg.Hot.Base && in.Addr < rg.Hot.Base+rg.Hot.Size
				inMid := rg.Mid.Size > 0 && in.Addr >= rg.Mid.Base && in.Addr < rg.Mid.Base+rg.Mid.Size
				inMain := in.Addr >= rg.Main.Base && in.Addr < rg.Main.Base+rg.Main.Size
				if !inHot && !inMid && !inMain {
					t.Fatalf("phase %d: address %#x outside all regions", pi, in.Addr)
				}
			}
			if in.PC < rg.Code.Base || in.PC >= rg.Code.Base+rg.Code.Size {
				t.Fatalf("phase %d: PC %#x outside code region", pi, in.PC)
			}
		}
	}
}

func TestRegionsDisjointAcrossPhases(t *testing.T) {
	app := x264App
	type span struct{ lo, hi uint64 }
	var spans []span
	for pi, p := range app.Phases {
		if p.RegionID != 0 {
			continue // shared by design
		}
		rg := p.Regions(pi)
		spans = append(spans,
			span{rg.Hot.Base, rg.Main.Base + rg.Main.Size},
			span{rg.Code.Base, rg.Code.Base + rg.Code.Size})
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			a, b := spans[i], spans[j]
			if a.lo < b.hi && b.lo < a.hi {
				t.Fatalf("regions overlap: [%#x,%#x) and [%#x,%#x)", a.lo, a.hi, b.lo, b.hi)
			}
		}
	}
}

func TestSharedRegionAliases(t *testing.T) {
	app := x264App
	// p2-me-wide shares p3-refload's region (owner index 2).
	rgShared := app.Phases[1].Regions(1)
	rgOwner := app.Phases[2].Regions(2)
	if rgShared.Hot.Base != rgOwner.Hot.Base {
		t.Errorf("shared phase should alias its owner's region: %#x vs %#x",
			rgShared.Hot.Base, rgOwner.Hot.Base)
	}
}

func TestMixDistributionMatchesSpec(t *testing.T) {
	p := ph("m", 0.05, mixInt, 3, 256, 8, 0.5, 0.3, 64, 0.05)
	g := NewPhaseGen(p, 0, 5)
	buf := make([]isa.Instr, 50_000)
	g.Next(buf)
	counts := map[isa.Op]float64{}
	for _, in := range buf {
		counts[in.Op]++
	}
	n := float64(len(buf))
	m := p.Mix.Normalize()
	for _, c := range []struct {
		op   isa.Op
		want float64
	}{
		{isa.OpALU, m.ALU}, {isa.OpLoad, m.Load}, {isa.OpStore, m.Store}, {isa.OpBranch, m.Branch},
	} {
		got := counts[c.op] / n
		if math.Abs(got-c.want) > 0.02 {
			t.Errorf("%v fraction = %.3f, want %.3f±0.02", c.op, got, c.want)
		}
	}
}

func TestDependenciesReferenceRecentProducers(t *testing.T) {
	p := ph("d", 0.01, mixInt, 4, 128, 8, 0.5, 0.3, 64, 0.02)
	g := NewPhaseGen(p, 0, 3)
	buf := make([]isa.Instr, 4096)
	g.Next(buf)
	written := map[isa.Reg]bool{}
	depCount := 0
	for _, in := range buf {
		if in.Src1 != isa.RegZero {
			depCount++
			if !written[in.Src1] {
				t.Fatalf("source r%d read before any write", in.Src1)
			}
		}
		if in.Dst != isa.RegZero {
			written[in.Dst] = true
		}
	}
	if depCount == 0 {
		t.Error("no dependences generated despite DepFrac > 0")
	}
}

func TestRequestStream(t *testing.T) {
	s := DefaultApacheStream()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	var gaps []float64
	for i := 0; i < 2000; i++ {
		a := s.NextArrival()
		if a <= prev {
			t.Fatalf("arrivals must be strictly increasing: %d then %d", prev, a)
		}
		if prev >= 0 {
			gaps = append(gaps, float64(a-prev))
		}
		prev = a
	}
	if s.Issued() != 2000 {
		t.Errorf("Issued = %d, want 2000", s.Issued())
	}
	// The mean gap must sit between the peak-rate and trough-rate gaps.
	mean := 0.0
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	minGap := 1e6 / (s.BaseRate + s.Amplitude)
	maxGap := 1e6 / (s.BaseRate - s.Amplitude)
	if mean < minGap*0.8 || mean > maxGap*1.2 {
		t.Errorf("mean gap %.0f outside [%f, %f]", mean, minGap, maxGap)
	}
}

func TestRequestStreamValidate(t *testing.T) {
	bad := []RequestStream{
		{BaseRate: 0, Amplitude: 0, PeriodMCycles: 1, InstrsPerRequest: 1},
		{BaseRate: 1, Amplitude: 1.5, PeriodMCycles: 1, InstrsPerRequest: 1},
		{BaseRate: 1, Amplitude: 0.5, PeriodMCycles: 0, InstrsPerRequest: 1},
		{BaseRate: 1, Amplitude: 0.5, PeriodMCycles: 1, InstrsPerRequest: 0},
		{BaseRate: 1, Amplitude: 0.5, PeriodMCycles: 1, InstrsPerRequest: 1, Jitter: 1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestRateAtOscillates(t *testing.T) {
	s := DefaultApacheStream()
	lo, hi := math.Inf(1), math.Inf(-1)
	period := int64(s.PeriodMCycles * 1e6)
	for c := int64(0); c < period; c += period / 100 {
		r := s.RateAt(c)
		lo = math.Min(lo, r)
		hi = math.Max(hi, r)
	}
	if hi-lo < s.Amplitude {
		t.Errorf("rate swing %.2f too small for amplitude %.2f", hi-lo, s.Amplitude)
	}
}

func TestGenQuick(t *testing.T) {
	// Property: any (small) valid phase produces only valid registers
	// and in-region addresses.
	f := func(seed uint64, wsRaw, hotRaw uint16) bool {
		ws := 64 + int(wsRaw%2048)
		hot := 4 + int(hotRaw%8)
		p := ph("q", 0.001, mixInt, 3, ws, hot, 0.5, 0.3, 64, 0.05)
		if p.Validate() != nil {
			return true // skip invalid combinations
		}
		g := NewPhaseGen(p, 0, seed)
		buf := make([]isa.Instr, 256)
		g.Next(buf)
		for _, in := range buf {
			if !in.Dst.Valid() || !in.Src1.Valid() || !in.Src2.Valid() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

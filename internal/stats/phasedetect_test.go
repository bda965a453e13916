package stats

import (
	"testing"
	"testing/quick"
)

func step(levels []float64, perLevel int) []float64 {
	var out []float64
	for _, l := range levels {
		for i := 0; i < perLevel; i++ {
			// Small deterministic ripple so segments are not constant.
			out = append(out, l+0.01*float64(i%3))
		}
	}
	return out
}

func TestDetectSingleStep(t *testing.T) {
	s := step([]float64{0.2, 0.6}, 40)
	b := DetectPhases(s, PhaseDetectOptions{})
	if len(b) != 1 {
		t.Fatalf("found %d boundaries, want 1 (%v)", len(b), b)
	}
	if b[0] < 35 || b[0] > 45 {
		t.Errorf("boundary at %d, want ~40", b[0])
	}
}

func TestDetectMultipleSteps(t *testing.T) {
	s := step([]float64{0.2, 0.6, 0.3, 0.9}, 30)
	b := DetectPhases(s, PhaseDetectOptions{})
	if len(b) != 3 {
		t.Fatalf("found %d boundaries, want 3 (%v)", len(b), b)
	}
	for i, want := range []int{30, 60, 90} {
		if b[i] < want-5 || b[i] > want+5 {
			t.Errorf("boundary %d at %d, want ~%d", i, b[i], want)
		}
	}
	means := phaseMeans(s, b)
	if len(means) != 4 {
		t.Fatalf("got %d phase means, want 4", len(means))
	}
	wantMeans := []float64{0.2, 0.6, 0.3, 0.9}
	for i, m := range means {
		if abs(m-wantMeans[i]) > 0.05 {
			t.Errorf("phase %d mean %.3f, want ~%.2f", i, m, wantMeans[i])
		}
	}
}

func TestDetectNoPhase(t *testing.T) {
	flat := step([]float64{0.5}, 100)
	if b := DetectPhases(flat, PhaseDetectOptions{}); len(b) != 0 {
		t.Errorf("flat series produced boundaries %v", b)
	}
	// Shifts below the threshold are ignored.
	tiny := step([]float64{0.50, 0.52}, 50)
	if b := DetectPhases(tiny, PhaseDetectOptions{MinShift: 0.2}); len(b) != 0 {
		t.Errorf("sub-threshold shift produced boundaries %v", b)
	}
}

func TestDetectShortSeries(t *testing.T) {
	if b := DetectPhases([]float64{1, 2, 3}, PhaseDetectOptions{}); len(b) != 0 {
		t.Errorf("too-short series produced boundaries %v", b)
	}
	if b := DetectPhases(nil, PhaseDetectOptions{}); len(b) != 0 {
		t.Error("nil series produced boundaries")
	}
}

func TestDetectMaxPhases(t *testing.T) {
	s := step([]float64{0.1, 0.9, 0.1, 0.9, 0.1, 0.9, 0.1, 0.9}, 20)
	b := DetectPhases(s, PhaseDetectOptions{MaxPhases: 3})
	if len(b) > 2 {
		t.Errorf("MaxPhases=3 allows at most 2 boundaries, got %d", len(b))
	}
}

func TestDetectInvariantsQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		s := make([]float64, len(raw))
		for i, r := range raw {
			s[i] = float64(r) / 255
		}
		b := DetectPhases(s, PhaseDetectOptions{})
		// Boundaries must be sorted, in range, and respect MinSegment.
		prev := 0
		for _, x := range b {
			if x <= prev || x >= len(s) {
				return false
			}
			prev = x
		}
		return len(phaseMeans(s, b)) <= len(b)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// phaseMeans returns the per-phase mean values given boundaries from
// DetectPhases.
func phaseMeans(series []float64, boundaries []int) []float64 {
	out := make([]float64, 0, len(boundaries)+1)
	start := 0
	for _, b := range append(append([]int{}, boundaries...), len(series)) {
		if b > start {
			out = append(out, Mean(series[start:b]))
		}
		start = b
	}
	return out
}

package stats

// Phase detection over a QoS sample series. The paper's methodology
// identifies an application's distinct processing phases by examining
// simulation output (§V-C: "We manually determine ... any distinct
// processing phases"); this is the automated equivalent — a recursive
// change-point detector that the harness can run over per-quantum IPC
// series to recover phase boundaries, and that tests use to verify the
// workload models actually produce the phases they claim.
//
// The detector is a binary-segmentation change-point search: it finds
// the split that maximizes the between-segment variance reduction,
// accepts it if the means differ by more than a relative threshold,
// and recurses into both halves.

// PhaseDetectOptions tune DetectPhases. Zero values select defaults.
type PhaseDetectOptions struct {
	// MinSegment is the minimum samples per phase (default 8).
	MinSegment int
	// MinShift is the relative mean shift that counts as a phase change
	// (default 0.15, i.e. 15%).
	MinShift float64
	// MaxPhases bounds the recursion (default 32).
	MaxPhases int
}

func (o PhaseDetectOptions) withDefaults() PhaseDetectOptions {
	if o.MinSegment <= 0 {
		o.MinSegment = 8
	}
	if o.MinShift <= 0 {
		o.MinShift = 0.15
	}
	if o.MaxPhases <= 0 {
		o.MaxPhases = 32
	}
	return o
}

// DetectPhases returns the boundaries of detected phases as indices
// into the series: boundaries[i] is the first sample of phase i+1. An
// empty result means the series looks like a single phase.
func DetectPhases(series []float64, opts PhaseDetectOptions) []int {
	opts = opts.withDefaults()
	var out []int
	segment(series, 0, opts, &out)
	sortInts(out)
	return out
}

// segment recursively splits series[base:...].
func segment(s []float64, base int, opts PhaseDetectOptions, out *[]int) {
	if len(*out) >= opts.MaxPhases-1 || len(s) < 2*opts.MinSegment {
		return
	}
	split, ok := bestSplit(s, opts)
	if !ok {
		return
	}
	*out = append(*out, base+split)
	segment(s[:split], base, opts, out)
	segment(s[split:], base+split, opts, out)
}

// bestSplit finds the index that best separates the series into two
// segments with different means, or reports that none qualifies.
func bestSplit(s []float64, opts PhaseDetectOptions) (int, bool) {
	n := len(s)
	// Prefix sums make every candidate split O(1).
	prefix := make([]float64, n+1)
	for i, v := range s {
		prefix[i+1] = prefix[i] + v
	}
	total := prefix[n]
	bestIdx, bestGain := -1, 0.0
	for i := opts.MinSegment; i <= n-opts.MinSegment; i++ {
		left := prefix[i] / float64(i)
		right := (total - prefix[i]) / float64(n-i)
		// Between-segment variance contribution of this split.
		d := left - right
		gain := float64(i) * float64(n-i) / float64(n) * d * d
		if gain > bestGain {
			bestIdx, bestGain = i, gain
		}
	}
	if bestIdx < 0 {
		return 0, false
	}
	left := prefix[bestIdx] / float64(bestIdx)
	right := (total - prefix[bestIdx]) / float64(n-bestIdx)
	mean := total / float64(n)
	if mean == 0 {
		return 0, false
	}
	if abs(left-right)/abs(mean) < opts.MinShift {
		return 0, false
	}
	return bestIdx, true
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func sortInts(v []int) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

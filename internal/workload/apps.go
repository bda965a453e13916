package workload

// This file defines the 13-application benchmark suite of the paper's
// §V-B: the SPEC CINT2006 integer suite subset, the PARSEC ferret and
// x264 kernels, the apache web server and the postal mail server.
//
// Each model is calibrated to reproduce the qualitative behaviour the
// paper reports for the real benchmark rather than its absolute IPC:
// compute-bound codes (hmmer, h264ref) scale with Slices and ignore L2,
// memory-bound codes (mcf, lib) scale with L2 capacity and ignore
// Slices, branchy codes (sjeng, gcc) scale with neither, and phased
// codes (x264 above all: Fig 1) move their optimum between phases.

// Standard integer and floating-point instruction mixes. Individual
// phases tweak copies of these.
var (
	mixInt = InstrMix{ALU: 0.46, Mul: 0.02, Div: 0.004, Load: 0.24, Store: 0.10, Branch: 0.176}
	mixFP  = InstrMix{ALU: 0.30, Mul: 0.03, FPU: 0.24, Load: 0.26, Store: 0.09, Branch: 0.08}
	mixMem = InstrMix{ALU: 0.34, Mul: 0.01, Load: 0.34, Store: 0.12, Branch: 0.19}
	mixSrv = InstrMix{ALU: 0.42, Mul: 0.01, Load: 0.26, Store: 0.11, Branch: 0.20}
)

// ph is a compact phase constructor used by the tables below.
func ph(name string, minstr float64, mix InstrMix, ilp float64, wsKB, hotKB int, hotFrac, streamFrac float64, stride int64, misp float64) Phase {
	return Phase{
		Name:           name,
		Instrs:         int64(minstr * 1e6),
		Mix:            mix,
		MeanDepDist:    ilp,
		DepFrac:        0.85,
		SecondSrcFrac:  0.5,
		WorkingSetKB:   wsKB,
		HotSetKB:       hotKB,
		HotFrac:        hotFrac,
		StreamFrac:     streamFrac,
		Stride:         stride,
		MispredictRate: misp,
	}
}

// withMid adds an intermediate working set to a phase (see
// Phase.MidSetKB); it is what gives a phase a second capacity knee and
// therefore local optima along the L2 axis.
func withMid(p Phase, midKB int, midFrac float64) Phase {
	p.MidSetKB = midKB
	p.MidFrac = midFrac
	return p
}

// share makes a phase revisit the address region owned by the phase at
// (1-based) position owner — recurring data such as reference frames.
func share(p Phase, owner int) Phase {
	p.RegionID = owner
	return p
}

// apps is the benchmark registry, in the alphabetical order the paper's
// figures use.
var apps = []App{
	{
		// Apache serving web requests (concurrency 30): request parsing
		// and handler phases alternate with logging; moderately branchy,
		// request state mostly fits in a few hundred KB.
		Name: "apache",
		Phases: []Phase{
			ph("parse", 0.9, mixSrv, 3.0, 384, 8, 0.55, 0.3, 64, 0.055),
			ph("handler", 1.1, mixSrv, 4.0, 768, 8, 0.45, 0.4, 64, 0.045),
			ph("static-io", 0.8, mixMem, 3.5, 1536, 10, 0.35, 0.7, 64, 0.035),
			ph("log", 0.7, mixSrv, 2.2, 256, 8, 0.65, 0.5, 64, 0.06),
		},
	},
	{
		// astar: path-finding over graph structures; pointer chasing with
		// poor branch prediction; optimum shifts as the map grows.
		Name: "astar",
		Phases: []Phase{
			ph("waypoints", 1.0, mixInt, 1.9, 512, 8, 0.40, 0.05, 64, 0.095),
			ph("rivers", 1.2, mixMem, 1.7, 2048, 8, 0.30, 0.05, 64, 0.085),
			ph("final", 0.8, mixInt, 2.3, 1024, 8, 0.40, 0.1, 64, 0.09),
		},
	},
	{
		// bzip2: block compression alternating Burrows-Wheeler sorting
		// (memory-heavy, ~900KB blocks) with Huffman coding (serial).
		Name: "bzip",
		Phases: []Phase{
			ph("bwt-sort", 1.1, mixMem, 3.5, 960, 10, 0.35, 0.45, 32, 0.06),
			ph("huffman", 0.9, mixInt, 2.1, 192, 10, 0.65, 0.2, 16, 0.075),
			share(ph("bwt-sort2", 1.1, mixMem, 3.5, 960, 10, 0.35, 0.45, 32, 0.06), 1),
			ph("output", 0.6, mixInt, 3.0, 256, 10, 0.6, 0.8, 64, 0.045),
		},
	},
	{
		// ferret: PARSEC content-similarity search pipeline (ROI only):
		// segmentation, feature extraction, indexing, ranking. FP-heavy
		// with large table footprints.
		Name: "ferret",
		Phases: []Phase{
			ph("segment", 0.9, mixFP, 6.5, 1024, 12, 0.35, 0.6, 64, 0.03),
			ph("extract", 1.0, mixFP, 8.5, 512, 12, 0.45, 0.5, 64, 0.025),
			ph("index", 1.0, mixMem, 3.0, 4096, 12, 0.25, 0.1, 64, 0.05),
			ph("rank", 0.9, mixFP, 7.0, 2048, 12, 0.35, 0.2, 64, 0.035),
			ph("aggregate", 0.6, mixInt, 3.5, 512, 12, 0.5, 0.3, 64, 0.05),
		},
	},
	{
		// gcc: compiler passes with distinct footprints and heavy,
		// poorly-predicted branching.
		Name: "gcc",
		Phases: []Phase{
			ph("parse", 0.8, mixInt, 2.4, 512, 10, 0.5, 0.2, 64, 0.08),
			ph("gimplify", 0.8, mixInt, 2.8, 768, 10, 0.45, 0.2, 64, 0.075),
			ph("ssa-opt", 1.0, mixInt, 3.2, 1536, 10, 0.4, 0.15, 64, 0.07),
			ph("loop-opt", 0.9, mixInt, 3.8, 2048, 10, 0.35, 0.25, 64, 0.06),
			ph("regalloc", 1.0, mixMem, 2.6, 3072, 10, 0.3, 0.1, 64, 0.075),
			ph("emit", 0.6, mixInt, 3.0, 384, 10, 0.55, 0.6, 64, 0.05),
		},
	},
	{
		// h264ref: reference video encoder; wide ILP in motion search and
		// transform phases, with a serial entropy-coding phase.
		Name: "h264ref",
		Phases: []Phase{
			ph("motion-est", 1.2, mixInt, 7.5, 768, 12, 0.4, 0.7, 16, 0.03),
			ph("transform", 0.9, mixFP, 9.0, 256, 12, 0.55, 0.6, 16, 0.02),
			ph("entropy", 0.8, mixInt, 1.8, 128, 10, 0.7, 0.2, 8, 0.085),
			ph("deblock", 0.8, mixInt, 5.5, 512, 12, 0.45, 0.8, 32, 0.03),
			ph("refframe", 0.9, mixMem, 4.5, 2048, 12, 0.3, 0.6, 64, 0.04),
		},
	},
	{
		// hmmer: profile HMM dynamic programming — the classic
		// Slice-hungry code: huge ILP, tiny working set.
		Name: "hmmer",
		Phases: []Phase{
			ph("viterbi", 1.6, mixInt, 11.0, 192, 12, 0.65, 0.7, 16, 0.015),
			ph("forward", 1.4, mixInt, 9.5, 256, 12, 0.6, 0.7, 16, 0.02),
		},
	},
	{
		// lib (libquantum): streaming over a quantum-register vector far
		// larger than any L2 — capacity-insensitive, bandwidth-bound.
		Name: "lib",
		Phases: []Phase{
			ph("toffoli", 1.3, mixMem, 4.5, 16384, 8, 0.1, 0.92, 64, 0.02),
			ph("sigma", 1.1, mixMem, 5.0, 16384, 8, 0.1, 0.95, 64, 0.015),
		},
	},
	{
		// postal mail server: queue management and string processing;
		// small footprint, heavy branching, low ILP.
		Name: "mailserver",
		Phases: []Phase{
			ph("receive", 0.9, mixSrv, 2.4, 320, 10, 0.55, 0.3, 64, 0.08),
			ph("route", 1.0, mixSrv, 2.0, 512, 10, 0.5, 0.2, 64, 0.09),
			ph("deliver", 0.8, mixMem, 2.8, 1024, 10, 0.4, 0.6, 64, 0.06),
		},
	},
	{
		// mcf: network-simplex optimization — the classic cache-hungry
		// code: giant pointer-chased working set, minimal ILP.
		Name: "mcf",
		Phases: []Phase{
			ph("simplex", 1.2, mixMem, 1.6, 4096, 8, 0.2, 0.05, 64, 0.055),
			ph("price", 1.0, mixMem, 1.5, 8192, 8, 0.15, 0.05, 64, 0.05),
			ph("flow", 0.8, mixMem, 1.8, 2048, 8, 0.25, 0.1, 64, 0.06),
		},
	},
	{
		// omnetpp: discrete-event network simulation; event-heap and
		// module state spread over megabytes, branchy dispatch.
		Name: "omnetpp",
		Phases: []Phase{
			ph("warmcache", 0.7, mixInt, 2.2, 1024, 10, 0.45, 0.2, 64, 0.075),
			ph("events", 1.2, mixMem, 2.0, 3072, 10, 0.35, 0.05, 64, 0.08),
			ph("stats", 0.8, mixInt, 2.6, 1536, 10, 0.4, 0.3, 64, 0.065),
			ph("burst", 0.9, mixMem, 1.9, 4096, 10, 0.3, 0.05, 64, 0.085),
		},
	},
	{
		// sjeng: chess search; mispredict-bound with a modest
		// transposition table.
		Name: "sjeng",
		Phases: []Phase{
			ph("opening", 0.9, mixInt, 2.6, 256, 10, 0.6, 0.1, 64, 0.11),
			ph("midgame", 1.2, mixInt, 2.3, 768, 10, 0.45, 0.05, 64, 0.125),
			ph("endgame", 0.9, mixInt, 2.9, 512, 10, 0.5, 0.1, 64, 0.10),
		},
	},
	x264App,
}

// x264App is the paper's motivating application (§II, Fig 1): ten
// distinct phases, no two consecutive phases sharing an optimal
// configuration, and most phases exhibiting local optima. The phases
// alternate between Slice-hungry compute (motion estimation, transform)
// and L2-hungry reference-frame traffic, at several working-set scales.
var x264App = App{
	Name: "x264",
	Phases: []Phase{
		withMid(ph("p1-analyse", 1.2, mixInt, 5.0, 512, 12, 0.45, 0.9, 32, 0.04), 96, 0.55),
		share(withMid(ph("p2-me-wide", 1.2, mixInt, 8.0, 2048, 12, 0.30, 0.92, 16, 0.03), 256, 0.55), 3),
		ph("p3-refload", 1.2, mixMem, 2.2, 4096, 10, 0.20, 0.3, 64, 0.05),
		ph("p4-transform", 1.2, mixFP, 9.5, 256, 12, 0.55, 0.6, 16, 0.02),
		ph("p5-cabac", 1.2, mixInt, 1.7, 128, 10, 0.70, 0.2, 8, 0.09),
		share(withMid(ph("p6-me-deep", 1.2, mixInt, 7.0, 1024, 12, 0.35, 0.9, 16, 0.035), 128, 0.5), 1),
		share(withMid(ph("p7-bigref", 1.2, mixMem, 3.0, 3072, 10, 0.25, 0.85, 64, 0.045), 512, 0.5), 3),
		ph("p8-deblock", 1.2, mixInt, 5.5, 384, 12, 0.5, 0.8, 32, 0.03),
		share(withMid(ph("p9-lookahead", 1.2, mixMem, 4.0, 2560, 10, 0.3, 0.88, 64, 0.04), 384, 0.5), 3),
		share(withMid(ph("p10-flush", 1.2, mixInt, 3.0, 768, 10, 0.5, 0.85, 64, 0.05), 192, 0.55), 1),
	},
}

// Apps returns the full 13-application suite in figure order. The
// returned slice is a copy; callers may reorder or rescale it freely.
func Apps() []App {
	out := make([]App, len(apps))
	copy(out, apps)
	return out
}

// Names returns the application names in figure order.
func Names() []string {
	names := make([]string, len(apps))
	for i, a := range apps {
		names[i] = a.Name
	}
	return names
}

// ByName looks an application model up by its benchmark name.
func ByName(name string) (App, bool) {
	for _, a := range apps {
		if a.Name == name {
			return a, true
		}
	}
	return App{}, false
}

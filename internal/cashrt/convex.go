package cashrt

import (
	"sort"

	"cash/internal/cost"
	"cash/internal/vcore"
)

// NewConvex builds the convex-optimization baseline of §II-B and §VI-C:
// the same feedback controller and Kalman estimator as CASH, but the
// speedup model is *static* — calibrated offline to the application's
// average-case behaviour and then forced concave in cost, because a
// convex optimizer cannot represent local optima. No online learning
// and no exploration happen; the model never adapts to phases.
//
// avgSpeedup gives the application's whole-run average speedup for each
// configuration (relative to the minimal configuration); it typically
// comes from the oracle's characterisation, which is the most generous
// possible calibration for this baseline.
func NewConvex(target float64, _ cost.Model, avgSpeedup func(vcore.Config) float64) (*Runtime, error) {
	r, err := New(target, cost.Default(), Options{})
	if err != nil {
		return nil, err
	}
	r.SetName("ConvexOptimization")
	r.opt.SetRelativeModel(concaveEnvelope(r.opt.Configs(), avgSpeedup))
	return r, nil
}

// concaveEnvelope maps every configuration to the upper concave
// envelope (in cost) of the calibration points. Configurations off the
// envelope inherit the envelope's value at their cost, so the
// optimizer's over/under search behaves exactly like a convex method:
// it can only ever trade along the hull.
func concaveEnvelope(cfgs []vcore.Config, avgSpeedup func(vcore.Config) float64) func(vcore.Config) float64 {
	type pt struct {
		rate, s float64
	}
	pts := make([]pt, 0, len(cfgs))
	for _, c := range cfgs {
		pts = append(pts, pt{rate: cost.Default().Rate(c), s: avgSpeedup(c)})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].rate < pts[j].rate })

	// Upper concave envelope via a monotone-chain scan, then make it
	// non-decreasing (a convex model assumes more resources never hurt).
	var hull []pt
	for _, p := range pts {
		for len(hull) >= 2 {
			a, b := hull[len(hull)-2], hull[len(hull)-1]
			// b is under the chord a→p: drop it.
			if (b.s-a.s)*(p.rate-a.rate) <= (p.s-a.s)*(b.rate-a.rate) {
				hull = hull[:len(hull)-1]
				continue
			}
			break
		}
		hull = append(hull, p)
	}
	for i := 1; i < len(hull); i++ {
		if hull[i].s < hull[i-1].s {
			hull[i].s = hull[i-1].s
		}
	}

	eval := func(rate float64) float64 {
		if rate <= hull[0].rate {
			return hull[0].s
		}
		for i := 1; i < len(hull); i++ {
			if rate <= hull[i].rate {
				a, b := hull[i-1], hull[i]
				f := (rate - a.rate) / (b.rate - a.rate)
				return a.s + f*(b.s-a.s)
			}
		}
		return hull[len(hull)-1].s
	}
	return func(c vcore.Config) float64 { return eval(cost.Default().Rate(c)) }
}

// BigLittle returns the coarse-grain heterogeneous machine of §VI-E:
// the big core is the largest configuration needed to meet every
// application's QoS (8 Slices, 4MB L2); the little core is the most
// cost-efficient configuration on average (1 Slice, 128KB L2).
func BigLittle() (big, little vcore.Config) {
	return vcore.Config{Slices: 8, L2KB: 4096}, vcore.Config{Slices: 1, L2KB: 128}
}

// NewCoarseAdaptive builds the CoarseGrain,adaptive point of §VI-E:
// the full CASH runtime, but restricted to shifting between the big
// and little core types.
func NewCoarseAdaptive(target float64, _ cost.Model, seed uint64) (*Runtime, error) {
	big, little := BigLittle()
	r, err := New(target, cost.Default(), Options{Configs: []vcore.Config{little, big}, Seed: seed})
	if err != nil {
		return nil, err
	}
	r.SetName("CoarseGrain,adaptive")
	return r, nil
}

// Package splitmix is the SplitMix64 pseudo-random generator that every
// seeded stream in the repository draws from: workload generation,
// fault schedules, the learning optimizer's exploration, the chaos
// soak's scenarios, arrival shapes and the daemon client's backoff
// jitter. It is a tiny fixed algorithm rather than math/rand, whose
// default source changed across Go releases, so each stream stays
// bit-for-bit identical across runs, releases and platforms.
//
// Callers keep their own seeding: At starts a generator at a raw state,
// New at the decorrelated state workload and fault seed from.
package splitmix

import "math"

// Gamma is the SplitMix64 state increment: 2^64 over the golden ratio.
const Gamma = 0x9e3779b97f4a7c15

// Rand is a SplitMix64 generator.
type Rand struct {
	state uint64
}

// At returns a generator whose state is state; its first draw is
// Mix(state + Gamma).
func At(state uint64) Rand { return Rand{state: state} }

// New returns a generator seeded from seed: the state starts one step
// past seed, which keeps seed 0 off the all-zero point, and the first
// draw is discarded to decorrelate nearby seeds.
func New(seed uint64) Rand {
	r := At(seed + Gamma)
	r.Uint64()
	return r
}

// Uint64 steps the state and returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	r.state += Gamma
	return Mix(r.state)
}

// Mix is the SplitMix64 finalizer, a bijection that spreads every input
// bit over the output.
func Mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Unit maps 64 random bits to a uniform value in [0, 1) through their
// top 53 bits.
func Unit(z uint64) float64 { return float64(z>>11) / (1 << 53) }

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 { return Unit(r.Uint64()) }

// Bits53 returns the top 53 bits of the next draw: the integer Float64
// scales to [0, 1). Comparing it against an integer threshold decides
// exactly like comparing Float64 against the threshold's fraction,
// without the conversion.
func (r *Rand) Bits53() uint64 { return r.Uint64() >> 11 }

// Intn returns a uniform value in [0, n). n must be positive.
func (r *Rand) Intn(n int64) int64 { return int64(r.Uint64() % uint64(n)) }

// ExpInt64 returns an exponentially distributed delay with the given
// mean, rounded down to at least 1.
func (r *Rand) ExpInt64(mean float64) int64 {
	d := int64(-math.Log(1-r.Float64()) * mean)
	if d < 1 {
		d = 1
	}
	return d
}

package guard

import (
	"math"
	"math/rand/v2"
	"testing"
)

// refBreakers is the reference for the one Breaker: the three
// pin-the-largest rules as separate state machines, each written out
// the way it was before they shared one type. The mean breaker counts
// a consecutive streak, the tail breaker slides a ring of verdicts,
// and the runtime's committed guard keeps miss and hit counters.
type refBreakers struct {
	stats Stats

	// Mean breaker.
	violStreak int64
	pinned     bool
	metStreak  int

	// Tail breaker.
	tailViol      [tailWindow]bool
	tailPos       int
	tailCount     int
	tailPinned    bool
	tailMetStreak int

	// Committed guard (cashrt.GuardCommitted).
	misses, guardHits int
	guardMode         bool
	recoveries        int64
}

func (g *refBreakers) breakerTick(measured, target float64, haveSample bool) bool {
	if haveSample && target > 0 {
		violated := !(measured >= target)
		if g.pinned {
			if violated {
				g.metStreak = 0
			} else {
				g.metStreak++
				if g.metStreak >= BreakerCooldown {
					g.pinned = false
					g.metStreak = 0
					g.violStreak = 0
					g.stats.BreakerRecoveries++
				}
			}
		} else {
			if violated {
				g.violStreak++
				if g.violStreak > g.stats.MaxViolationStreak {
					g.stats.MaxViolationStreak = g.violStreak
				}
				if g.violStreak >= BreakerK {
					g.pinned = true
					g.metStreak = 0
					g.stats.BreakerTrips++
				}
			} else {
				g.violStreak = 0
			}
		}
	}
	if g.pinned {
		g.stats.PinnedEpochs++
	}
	return g.pinned
}

func (g *refBreakers) tailTick(measured, target float64, haveSample bool) bool {
	if haveSample && target > 0 {
		violated := !(measured >= target)
		if g.tailPinned {
			if violated {
				g.tailMetStreak = 0
			} else {
				g.tailMetStreak++
				if g.tailMetStreak >= tailCooldown {
					g.tailPinned = false
					g.tailMetStreak = 0
					g.tailViol = [tailWindow]bool{}
					g.tailCount = 0
					g.stats.TailRecoveries++
				}
			}
		} else {
			if g.tailViol[g.tailPos] {
				g.tailCount--
			}
			g.tailViol[g.tailPos] = violated
			if violated {
				g.tailCount++
			}
			g.tailPos = (g.tailPos + 1) % tailWindow
			if int64(g.tailCount) > g.stats.MaxTailWindowCount {
				g.stats.MaxTailWindowCount = int64(g.tailCount)
			}
			if g.tailCount >= tailK {
				g.tailPinned = true
				g.tailMetStreak = 0
				g.stats.TailTrips++
			}
		}
	}
	if g.tailPinned {
		g.stats.TailPinnedEpochs++
	}
	return g.tailPinned
}

func (g *refBreakers) committedTick(measured, target float64, haveSample bool) bool {
	if haveSample {
		if measured < target {
			g.misses++
			g.guardHits = 0
		} else {
			g.misses = 0
			g.guardHits++
		}
	}
	if g.guardMode && g.guardHits >= 2 {
		g.guardMode = false
	}
	if !g.guardMode && g.misses >= 2 {
		g.guardMode = true
		g.misses = 0
		g.recoveries++
	}
	return g.guardMode
}

// verdict draws one epoch's QoS reading against a target of 1: a miss
// with probability p (NaN among them), a met reading otherwise, with
// readings exactly on target and no-sample epochs mixed in.
func verdict(rng *rand.Rand, p float64) (measured float64, haveSample bool) {
	switch u := rng.Float64(); {
	case u < 0.1:
		return 0, false
	case u < 0.13:
		return math.NaN(), true
	case u < 0.15:
		return 1, true
	case rng.Float64() < p:
		return rng.Float64(), true
	default:
		return 1 + rng.Float64(), true
	}
}

// TestBreakerMatchesReference drives the Guard's two breakers and the
// runtime's committed Breaker{2, 2, 2} alongside the reference state
// machines on random verdict streams, in Decide's order: the committed
// guard ticks only on epochs neither guardrail breaker pins. Every
// epoch must give the same pin decisions, the same Stats and the same
// escalation count.
func TestBreakerMatchesReference(t *testing.T) {
	committedPins := 0
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 36))
		g, ref := New(), &refBreakers{}
		committed := Breaker{K: 2, Window: 2, Cooldown: 2}
		var pMean, pTail, pCommitted float64
		for epoch := 1; epoch <= 2000; epoch++ {
			if epoch%40 == 1 {
				// A new regime: anything from healthy to hopeless.
				levels := []float64{0, 0.2, 0.5, 0.8, 1}
				pMean, pTail, pCommitted = levels[rng.IntN(5)], levels[rng.IntN(5)], levels[rng.IntN(5)]
			}
			target := 1.0
			if rng.IntN(50) == 0 {
				target = 0 // no target: no verdict for the guardrails
			}
			mq, mok := verdict(rng, pMean)
			tq, tok := verdict(rng, pTail)
			cq, cok := verdict(rng, pCommitted)

			mean, refMean := g.BreakerTick(mq, target, mok), ref.breakerTick(mq, target, mok)
			tail, refTail := g.TailTick(tq, target, tok), ref.tailTick(tq, target, tok)
			if mean != refMean || tail != refTail {
				t.Fatalf("seed %d epoch %d: mean/tail pinned %v/%v, reference %v/%v", seed, epoch, mean, tail, refMean, refTail)
			}
			if s, want := g.Stats(), ref.stats; s != want {
				t.Fatalf("seed %d epoch %d: stats\n%+v\nreference\n%+v", seed, epoch, s, want)
			}
			if mean || tail {
				continue
			}
			pin, refPin := committed.Tick(cq < 1, cok), ref.committedTick(cq, 1, cok)
			if pin != refPin || committed.Trips() != ref.recoveries {
				t.Fatalf("seed %d epoch %d: committed pinned %v after %d trips, reference %v after %d",
					seed, epoch, pin, committed.Trips(), refPin, ref.recoveries)
			}
			if pin {
				committedPins++
			}
		}
		s := g.Stats()
		if s.BreakerTrips == 0 || s.BreakerRecoveries == 0 || s.TailTrips == 0 || s.TailRecoveries == 0 {
			t.Fatalf("seed %d: the stream never cycled a guardrail breaker: %+v", seed, s)
		}
	}
	if committedPins == 0 {
		t.Fatal("the committed guard never pinned: the test is vacuous")
	}
}

package workload

import (
	"testing"

	"cash/internal/splitmix"
)

// TestFastModMatchesModulo verifies the three-multiply remainder
// against the hardware divide on adversarial divisors (powers of two,
// ±1 neighbours, tiny, huge) and dividends (0, d-1, d, d+1, multiples,
// all-ones), plus a dense random sweep over both.
func TestFastModMatchesModulo(t *testing.T) {
	divisors := []uint64{
		1, 2, 3, 5, 7, 63, 64, 65, 100, 1023, 1024, 1025,
		1 << 20, 1<<20 + 1, 1<<32 - 1, 1 << 32, 1<<32 + 1,
		1<<40 - 7, 1 << 52, 1<<63 - 1, 1 << 63, 1<<63 + 1, ^uint64(0),
	}
	r := splitmix.New(2024)
	for i := 0; i < 200; i++ {
		divisors = append(divisors, 1+r.Uint64()%(1<<45))
	}
	for _, d := range divisors {
		f := newFastMod(d)
		xs := []uint64{0, 1, d - 1, d, d + 1, 2*d - 1, 2 * d, ^uint64(0), ^uint64(0) - 1}
		for i := 0; i < 500; i++ {
			xs = append(xs, r.Uint64())
		}
		for _, x := range xs {
			if got, want := f.mod(x), x%d; got != want {
				t.Fatalf("fastMod(%d) %% %d = %d, want %d", x, d, got, want)
			}
		}
	}
}

package splitmix

import (
	"math"
	"testing"
)

// TestReferenceStream pins the generator to the published SplitMix64
// outputs for state 0.
func TestReferenceStream(t *testing.T) {
	r := At(0)
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f, 0xf88bb8a8724c81ec} {
		if got := r.Uint64(); got != want {
			t.Fatalf("draw %d = %#x, want %#x", i, got, want)
		}
	}
}

// TestDerivedDraws checks each derived draw against the raw bits of the
// same step.
func TestDerivedDraws(t *testing.T) {
	a, b := New(7), New(7)
	for i := 0; i < 1000; i++ {
		switch z := b.Uint64(); i % 4 {
		case 0:
			if got := a.Float64(); got != float64(z>>11)/(1<<53) || got >= 1 {
				t.Fatalf("Float64 = %v from bits %#x", got, z)
			}
		case 1:
			if got := a.Bits53(); got != z>>11 {
				t.Fatalf("Bits53 = %#x from bits %#x", got, z)
			}
		case 2:
			if got := a.Intn(10); got != int64(z%10) {
				t.Fatalf("Intn(10) = %d from bits %#x", got, z)
			}
		case 3:
			want := max(int64(-math.Log(1-float64(z>>11)/(1<<53))*40), 1)
			if got := a.ExpInt64(40); got != want {
				t.Fatalf("ExpInt64(40) = %d from bits %#x, want %d", got, z, want)
			}
		}
	}
}

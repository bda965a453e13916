package noc

import (
	"testing"
	"testing/quick"
)

func TestManhattan(t *testing.T) {
	cases := []struct {
		a, b Coord
		want int
	}{
		{Coord{0, 0}, Coord{0, 0}, 0},
		{Coord{0, 0}, Coord{3, 4}, 7},
		{Coord{-2, 1}, Coord{1, -1}, 5},
	}
	for _, c := range cases {
		if got := Manhattan(c.a, c.b); got != c.want {
			t.Errorf("Manhattan(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestManhattanSymmetricQuick(t *testing.T) {
	f := func(ax, ay, bx, by int8) bool {
		a := Coord{int(ax), int(ay)}
		b := Coord{int(bx), int(by)}
		d := Manhattan(a, b)
		return d == Manhattan(b, a) && d >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLatencies(t *testing.T) {
	if OperandLatency(0) != 0 {
		t.Error("local forwarding must be free")
	}
	if OperandLatency(2) != OperandRouterDelay+2*OperandHopDelay {
		t.Error("operand latency formula")
	}
}

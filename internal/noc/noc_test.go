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
	if CtrlLatency(3) != CtrlRouterDelay+3*CtrlHopDelay {
		t.Error("control latency formula")
	}
	if CtrlLatency(-1) != CtrlRouterDelay {
		t.Error("negative hops clamp to zero")
	}
}

func TestNetworkDelivery(t *testing.T) {
	n := NewCtrlNetwork()
	var got []Message
	n.Register(1, Coord{0, 0}, func(m Message) { got = append(got, m) })
	n.Register(2, Coord{0, 3}, nil)

	d, err := n.Send(Message{Type: MsgPerfRequest, Src: 2, Dst: 1}, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(100 + CtrlRouterDelay + 3*CtrlHopDelay)
	if d != want {
		t.Errorf("delivery cycle %d, want %d", d, want)
	}
	n.DeliverUntil(d - 1)
	if len(got) != 0 {
		t.Fatal("message delivered early")
	}
	n.DeliverUntil(d)
	if len(got) != 1 {
		t.Fatal("message not delivered on time")
	}
	if got[0].SendCycle != 100 || got[0].DeliverCycle != d {
		t.Errorf("timestamps wrong: %+v", got[0])
	}
}

func TestNetworkOrdering(t *testing.T) {
	n := NewCtrlNetwork()
	var order []uint64
	n.Register(1, Coord{0, 0}, func(m Message) { order = append(order, m.Seq) })
	n.Register(2, Coord{5, 0}, nil) // far: slower
	n.Register(3, Coord{1, 0}, nil) // near: faster

	n.Send(Message{Src: 2, Dst: 1, Seq: 10}, 0) // arrives at 3+5 = 8
	n.Send(Message{Src: 3, Dst: 1, Seq: 20}, 0) // arrives at 3+1 = 4
	n.DeliverUntil(100)
	if len(order) != 2 || order[0] != 20 || order[1] != 10 {
		t.Errorf("delivery order %v, want [20 10]", order)
	}
}

func TestNetworkUnknownNodes(t *testing.T) {
	n := NewCtrlNetwork()
	n.Register(1, Coord{0, 0}, nil)
	if _, err := n.Send(Message{Src: 1, Dst: 99}, 0); err == nil {
		t.Error("sending to an unknown node must fail")
	}
	if _, err := n.Send(Message{Src: 99, Dst: 1}, 0); err == nil {
		t.Error("sending from an unknown node must fail")
	}
}

func TestNetworkUnregisterDrops(t *testing.T) {
	n := NewCtrlNetwork()
	delivered := 0
	n.Register(1, Coord{0, 0}, func(Message) { delivered++ })
	n.Register(2, Coord{1, 0}, nil)
	n.Send(Message{Src: 2, Dst: 1}, 0)
	n.Unregister(1)
	n.DeliverUntil(100)
	if delivered != 0 {
		t.Error("message to unregistered node must be dropped")
	}
	if n.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", n.Dropped())
	}
	if n.Sent() != 1 {
		t.Errorf("Sent = %d, want 1", n.Sent())
	}
}

func TestMsgTypeString(t *testing.T) {
	if MsgPerfRequest.String() != "perf-request" || MsgShrink.String() != "shrink" {
		t.Error("message names wrong")
	}
}

func TestNetworkSequencing(t *testing.T) {
	n := NewCtrlNetwork()
	n.Register(1, Coord{0, 0}, nil)
	n.Register(2, Coord{0, 0}, nil)
	n.Send(Message{Src: 1, Dst: 2}, 0)
	n.Send(Message{Src: 1, Dst: 2}, 0)
	if n.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", n.Pending())
	}
	n.DeliverUntil(1 << 40)
	if n.Pending() != 0 {
		t.Error("all messages should drain")
	}
}

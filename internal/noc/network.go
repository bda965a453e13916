package noc

import (
	"container/heap"
	"fmt"
)

// NodeID names an endpoint on a network: a Slice, a cache bank, or the
// tile running the CASH runtime.
type NodeID int

// MsgType enumerates the runtime-interface-network message kinds of
// §III-B2.
type MsgType uint8

const (
	// MsgPerfRequest asks a Slice for a timestamped performance-counter
	// sample.
	MsgPerfRequest MsgType = iota
	// MsgPerfReply carries the sample back to the requester.
	MsgPerfReply
	// MsgExpand commands a Slice or L2 bank to join a virtual core.
	MsgExpand
	// MsgShrink commands a Slice or L2 bank to leave a virtual core;
	// the receiver flushes its architectural state first (Fig 5).
	MsgShrink
	// MsgAck confirms completion of an Expand/Shrink command.
	MsgAck
)

var msgNames = [...]string{"perf-request", "perf-reply", "expand", "shrink", "ack"}

// String returns the message-kind name.
func (t MsgType) String() string {
	if int(t) < len(msgNames) {
		return msgNames[t]
	}
	return fmt.Sprintf("msg(%d)", uint8(t))
}

// Message is one packet in flight on a network.
type Message struct {
	Type     MsgType
	Src, Dst NodeID
	// Seq correlates replies with requests.
	Seq uint64
	// Payload carries a command argument or an encoded counter sample.
	Payload any
	// SendCycle is when the packet entered the network; DeliverCycle is
	// when it reaches Dst.
	SendCycle, DeliverCycle int64
}

// Network is the CASH Runtime Interface Network: it delivers messages
// between registered nodes with position-dependent latency
// (CtrlLatency). It is a discrete-event model: senders call Send, and
// the owner advances time with DeliverUntil, which invokes the
// destination handler for every message whose delivery cycle has
// arrived, in delivery order.
type Network struct {
	pos      map[NodeID]Coord
	handlers map[NodeID]func(Message)
	inflight msgHeap
	seq      uint64
	sent     int64
	dropped  int64
}

// NewCtrlNetwork builds a CASH Runtime Interface Network instance.
func NewCtrlNetwork() *Network {
	return &Network{
		pos:      make(map[NodeID]Coord),
		handlers: make(map[NodeID]func(Message)),
	}
}

// Register attaches a node at a position with a delivery handler.
// Re-registering a node updates its position and handler.
func (n *Network) Register(id NodeID, at Coord, handler func(Message)) {
	n.pos[id] = at
	n.handlers[id] = handler
}

// Unregister detaches a node. In-flight messages to it are dropped at
// delivery time (and counted), modelling a tile that left the virtual
// core before a packet arrived.
func (n *Network) Unregister(id NodeID) {
	delete(n.pos, id)
	delete(n.handlers, id)
}

// Latency returns the src→dst transfer time, or an error if either
// endpoint is unknown.
func (n *Network) Latency(src, dst NodeID) (int, error) {
	a, ok := n.pos[src]
	if !ok {
		return 0, fmt.Errorf("noc: runtime-interface network: unknown source node %d", src)
	}
	b, ok := n.pos[dst]
	if !ok {
		return 0, fmt.Errorf("noc: runtime-interface network: unknown destination node %d", dst)
	}
	return CtrlLatency(Manhattan(a, b)), nil
}

// Send injects a message at the given cycle. The sequence number is
// assigned if zero. It returns the delivery cycle.
func (n *Network) Send(m Message, atCycle int64) (int64, error) {
	lat, err := n.Latency(m.Src, m.Dst)
	if err != nil {
		return 0, err
	}
	if m.Seq == 0 {
		n.seq++
		m.Seq = n.seq
	}
	m.SendCycle = atCycle
	m.DeliverCycle = atCycle + int64(lat)
	heap.Push(&n.inflight, m)
	n.sent++
	return m.DeliverCycle, nil
}

// DeliverUntil delivers every message whose delivery cycle is <= cycle,
// in delivery order, invoking each destination's handler. Messages to
// unregistered nodes are dropped.
func (n *Network) DeliverUntil(cycle int64) {
	for n.inflight.Len() > 0 && n.inflight[0].DeliverCycle <= cycle {
		m := heap.Pop(&n.inflight).(Message)
		h, ok := n.handlers[m.Dst]
		if !ok || h == nil {
			n.dropped++
			continue
		}
		h(m)
	}
}

// Pending returns the number of in-flight messages.
func (n *Network) Pending() int { return n.inflight.Len() }

// Sent returns how many messages were injected over the network's life.
func (n *Network) Sent() int64 { return n.sent }

// Dropped returns how many messages arrived for unregistered nodes.
func (n *Network) Dropped() int64 { return n.dropped }

// msgHeap orders messages by delivery cycle, then injection order.
type msgHeap []Message

func (h msgHeap) Len() int { return len(h) }
func (h msgHeap) Less(i, j int) bool {
	if h[i].DeliverCycle != h[j].DeliverCycle {
		return h[i].DeliverCycle < h[j].DeliverCycle
	}
	return h[i].Seq < h[j].Seq
}
func (h msgHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *msgHeap) Push(x any)   { *h = append(*h, x.(Message)) }
func (h *msgHeap) Pop() any {
	old := *h
	n := len(old)
	m := old[n-1]
	*h = old[:n-1]
	return m
}

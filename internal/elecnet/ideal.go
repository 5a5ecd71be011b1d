package elecnet

import (
	"baldur/internal/netsim"
	"baldur/internal/sim"
)

// Ideal is the paper's reference network: infinite bandwidth and a flat
// packet latency of 200 ns, regardless of traffic.
type Ideal struct {
	eng       *sim.Engine
	nodes     int
	latency   sim.Duration
	onDeliver []func(*netsim.Packet, sim.Time)
	nextID    uint64
	evFree    *idealEvent
	ledger    netsim.Counters
}

// idealEvent is the pooled delivery event of one in-flight packet.
type idealEvent struct {
	n    *Ideal
	p    *netsim.Packet
	next *idealEvent
}

func (ev *idealEvent) Run(e *sim.Engine) {
	n, p := ev.n, ev.p
	ev.p = nil
	ev.next = n.evFree
	n.evFree = ev
	n.ledger.Delivered++
	at := e.Now()
	for _, fn := range n.onDeliver {
		fn(p, at)
	}
}

// NewIdeal builds an ideal network with the given node count. Latency 0
// selects the paper's 200 ns.
func NewIdeal(nodes int, latency sim.Duration) *Ideal {
	if latency == 0 {
		latency = 200 * sim.Nanosecond
	}
	return &Ideal{eng: sim.NewEngine(), nodes: nodes, latency: latency}
}

// Engine returns the simulation engine.
func (n *Ideal) Engine() *sim.Engine { return n.eng }

// NumNodes returns the node count.
func (n *Ideal) NumNodes() int { return n.nodes }

// OnDeliver registers a delivery callback.
func (n *Ideal) OnDeliver(fn func(p *netsim.Packet, at sim.Time)) {
	n.onDeliver = append(n.onDeliver, fn)
}

// Counters returns the injected and delivered ledger (netsim.Network).
func (n *Ideal) Counters() netsim.Counters { return n.ledger }

// Send delivers the packet exactly 200 ns later, no queueing, no drops.
func (n *Ideal) Send(src, dst, size int) *netsim.Packet {
	n.nextID++
	p := &netsim.Packet{ID: n.nextID, Src: src, Dst: dst, Size: size, Created: n.eng.Now()}
	n.ledger.Injected++
	ev := n.evFree
	if ev != nil {
		n.evFree = ev.next
	} else {
		ev = &idealEvent{n: n}
	}
	ev.p = p
	n.eng.ScheduleAfter(n.latency, ev)
	return p
}

package elecnet

import (
	"fmt"

	"baldur/internal/faults"
	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/telemetry"
)

// Scripted-fault surface of the shared router engine (internal/faults).
// Kill/restore/degrade mutate model state at barrier boundaries only; the
// teardown paths are credit-safe — every input-buffer slot a discarded
// packet held is returned to its feeder, so flow control keeps working
// around the failure and the audit's credit-restock drain invariant holds
// across kill→restore cycles.

// refreshFaulty recomputes the single hot-path guard after any fault-state
// mutation.
func (n *engine) refreshFaulty() {
	n.faulty = n.deadRouter.Any() || n.deadPort.Any() || n.deadNode.Any() || n.degrade > 0
}

// countDrop tallies one faulted-away packet on sh's ledger and flight
// recorder.
func (n *engine) countDrop(sh *eshard, p *netsim.Packet, at sim.Time) {
	sh.stats.Dropped++
	if tp := sh.tp; tp != nil && tp.ring != nil {
		tp.ring.Add(telemetry.Record{
			At: at, Pkt: p.ID, Kind: telemetry.KindDrop,
			Src: int32(p.Src), Dst: int32(p.Dst), Loc: -1,
		})
	}
}

// dropState discards a packet that holds no input-buffer slot (still at its
// source NIC, or already past the ejection port's credit return).
func (n *engine) dropState(sh *eshard, st *pktState, at sim.Time) {
	p := st.pkt
	n.releaseState(st)
	n.countDrop(sh, p, at)
}

// dropFaulty discards a packet at router r, returning the input slot it
// holds there (all packets at or queued inside a router hold exactly one).
func (n *engine) dropFaulty(r *router, st *pktState, at sim.Time) {
	if st.holdRouter >= 0 {
		n.scheduleCreditReturn(r, st.holdIn, st.vcHeld(n.cfg.VirtualChannels), at)
	}
	n.dropState(r.sh, st, at)
}

// faultAtArrival handles the dead-router and degraded-link checks at the
// head-arrival point; it reports whether the packet was consumed. It runs
// before arrive steps st.hop, so the slot the packet holds belongs to the VC
// it was sent on — st.vc, not vcHeld (which subtracts the hop increment that
// has not happened yet).
func (n *engine) faultAtArrival(r *router, st *pktState) bool {
	if !n.deadRouter.Get(int(r.id)) &&
		!(n.degrade > 0 && n.degradeRNG[r.id].Float64() < n.degrade) {
		return false
	}
	at := r.eng.Now()
	if st.holdRouter >= 0 {
		n.scheduleCreditReturn(r, st.holdIn, st.vc(n.cfg.VirtualChannels), at)
	}
	n.dropState(r.sh, st, at)
	return true
}

// flushPort drops everything queued at one output port (the router or the
// port just died), returning each packet's held input slot.
func (n *engine) flushPort(r *router, port *outPort, at sim.Time) {
	for vi := range port.queues {
		q := &port.queues[vi]
		for q.len() > 0 {
			st := q.pop()
			port.queued--
			n.dropFaulty(r, st, at)
		}
	}
}

// KillRouter marks a router dead: its buffered packets are flushed into the
// drop counter (credits returned upstream) and every future head arrival is
// discarded at the input, with the credit bounced back — so feeders drain
// through the failure instead of wedging.
func (n *engine) KillRouter(rid int, at sim.Time) error {
	if rid < 0 || rid >= len(n.routers) {
		return fmt.Errorf("elecnet(%s): router %d outside [0,%d)", n.name, rid, len(n.routers))
	}
	if n.deadRouter.Set(rid) {
		r := &n.routers[rid]
		for pi := range r.out {
			n.flushPort(r, &r.out[pi], at)
		}
	}
	n.refreshFaulty()
	return nil
}

// RestoreRouter brings a dead router back. Its buffers were flushed at kill
// time and its input credits returned, so it restarts empty and consistent.
func (n *engine) RestoreRouter(rid int) error {
	if rid < 0 || rid >= len(n.routers) {
		return fmt.Errorf("elecnet(%s): router %d outside [0,%d)", n.name, rid, len(n.routers))
	}
	n.deadRouter.Clear(rid)
	n.refreshFaulty()
	return nil
}

// KillPort severs one output link: packets queued for it are flushed and
// future arrivals routed to it are discarded at the router.
func (n *engine) KillPort(rid, port int, at sim.Time) error {
	if rid < 0 || rid >= len(n.routers) {
		return fmt.Errorf("elecnet(%s): router %d outside [0,%d)", n.name, rid, len(n.routers))
	}
	r := &n.routers[rid]
	if port < 0 || port >= len(r.out) {
		return fmt.Errorf("elecnet(%s): router %d port %d outside [0,%d)", n.name, rid, port, len(r.out))
	}
	if n.deadPort.Set(rid*n.outStride + port) {
		n.flushPort(r, &r.out[port], at)
	}
	n.refreshFaulty()
	return nil
}

// RestorePort repairs a severed output link.
func (n *engine) RestorePort(rid, port int) error {
	if rid < 0 || rid >= len(n.routers) || port < 0 || port >= len(n.routers[rid].out) {
		return fmt.Errorf("elecnet(%s): port (%d,%d) out of range", n.name, rid, port)
	}
	n.deadPort.Clear(rid*n.outStride + port)
	n.refreshFaulty()
	return nil
}

// KillNode severs a node's attachment: its source queue is flushed (and
// future injections drop at service time without consuming credits), and
// packets ejecting toward it die on the cut link after the ejection port's
// normal credit return.
func (n *engine) KillNode(node int, at sim.Time) error {
	if node < 0 || node >= len(n.nics) {
		return fmt.Errorf("elecnet(%s): node %d outside [0,%d)", n.name, node, len(n.nics))
	}
	if n.deadNode.Set(node) {
		nic := &n.nics[node]
		for nic.queue.len() > 0 {
			n.dropState(nic.sh, nic.queue.pop(), at)
		}
	}
	n.refreshFaulty()
	return nil
}

// RestoreNode reattaches a node.
func (n *engine) RestoreNode(node int) error {
	if node < 0 || node >= len(n.nics) {
		return fmt.Errorf("elecnet(%s): node %d outside [0,%d)", n.name, node, len(n.nics))
	}
	n.deadNode.Clear(node)
	n.refreshFaulty()
	return nil
}

// SetDegrade enables degraded operation: every head arrival additionally
// drops with probability p (0 restores healthy links). Draws come from
// per-router streams consumed in each router's deterministic arrival order,
// so degraded runs stay bit-identical for any shard count.
func (n *engine) SetDegrade(p float64) error {
	if p < 0 || p >= 1 {
		return fmt.Errorf("elecnet(%s): degrade probability %v outside [0,1)", n.name, p)
	}
	if p > 0 && n.degradeRNG == nil {
		base := sim.NewRNG(n.seed ^ 0xdec4ade)
		n.degradeRNG = make([]sim.RNG, len(n.routers))
		for i := range n.degradeRNG {
			n.degradeRNG[i] = *base.Fork(uint64(i) + 1)
		}
	}
	n.degrade = p
	n.refreshFaulty()
	return nil
}

// ApplyFault implements faults.Target for the shared router engine. It must
// only be called at barrier boundaries (netsim.Drive's slice boundaries are);
// teardown uses the event's own timestamp, which the boundary is aligned to,
// so credit returns respect the sharded engine's lookahead.
func (n *engine) ApplyFault(ev faults.Event) error {
	switch ev.Action {
	case faults.KillSwitch:
		return n.KillRouter(ev.A, ev.At)
	case faults.RestoreSwitch:
		return n.RestoreRouter(ev.A)
	case faults.KillLink:
		return n.KillPort(ev.A, ev.B, ev.At)
	case faults.RestoreLink:
		return n.RestorePort(ev.A, ev.B)
	case faults.KillNode:
		return n.KillNode(ev.A, ev.At)
	case faults.RestoreNode:
		return n.RestoreNode(ev.A)
	case faults.SetDegrade:
		return n.SetDegrade(ev.Prob)
	case faults.ClearDegrade:
		return n.SetDegrade(0)
	}
	return fmt.Errorf("elecnet(%s): unsupported fault action %v", n.name, ev.Action)
}

package faults

import (
	"fmt"

	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/telemetry"
)

// Controller walks one Script over one run; it implements netsim.Script, so
// netsim.Drive applies it at barrier-aligned slice boundaries. It is
// single-use: build a fresh controller per run (the script itself is
// reusable).
type Controller struct {
	script Script
	next   int
	// PacketSize is the incast burst packet size (0: the network default).
	PacketSize int
	// applied counts events handed to the network so far.
	applied int
}

var _ netsim.Script = (*Controller)(nil)

// NewController returns a controller at the start of the script.
func NewController(script Script) *Controller {
	return &Controller{script: script}
}

// Pending reports whether unapplied events remain.
func (c *Controller) Pending() bool { return c.next < len(c.script.Events) }

// Applied returns how many events have been applied so far.
func (c *Controller) Applied() int { return c.applied }

// NextAt returns the time of the next unapplied event.
func (c *Controller) NextAt() (sim.Time, bool) {
	if c.next >= len(c.script.Events) {
		return 0, false
	}
	return c.script.Events[c.next].At, true
}

// ApplyDue applies every event with At <= now. The caller must hold a full
// barrier (all shard goroutines parked): netsim.Drive's slice boundaries
// are, with the controller as its Script.
func (c *Controller) ApplyDue(net netsim.Network, now sim.Time, tel *telemetry.Telemetry) (int, error) {
	n := 0
	for c.next < len(c.script.Events) && c.script.Events[c.next].At <= now {
		ev := c.script.Events[c.next]
		c.next++
		if ev.Action == StartIncast {
			if err := c.applyIncast(net, ev, now); err != nil {
				return n, err
			}
		} else {
			ft, ok := net.(Target)
			if !ok {
				return n, fmt.Errorf("faults: network %T does not implement faults.Target", net)
			}
			if err := ft.ApplyFault(ev); err != nil {
				return n, fmt.Errorf("faults: script %q: %w", c.script.Name, err)
			}
		}
		if tel != nil {
			if ring := tel.Ring(0); ring != nil {
				ring.Add(telemetry.Record{
					At: now, Kind: telemetry.KindFault,
					Src: int32(ev.A), Dst: int32(ev.B), Loc: -1, Aux: int32(ev.Action),
				})
			}
		}
		c.applied++
		n++
	}
	return n, nil
}

// incastSender burst-enqueues count packets from src to dst. It runs as a
// node event on src's shard, where Send is legal mid-run.
type incastSender struct {
	net         netsim.Network
	src, dst    int
	count, size int
}

func (s *incastSender) Run(*sim.Engine) {
	for i := 0; i < s.count; i++ {
		s.net.Send(s.src, s.dst, s.size)
	}
}

// applyIncast schedules one burst sender per source node. Sources are spread
// deterministically around the victim; the bursts land one nanosecond after
// the barrier so ScheduleNode's "before the run continues" contract holds on
// every shard.
func (c *Controller) applyIncast(net netsim.Network, ev Event, now sim.Time) error {
	nodes := net.NumNodes()
	if ev.A < 0 || ev.A >= nodes {
		return fmt.Errorf("faults: incast target %d outside [0,%d)", ev.A, nodes)
	}
	srcs := ev.Count
	if srcs < 1 {
		srcs = 1
	}
	if srcs > nodes-1 {
		srcs = nodes - 1
	}
	pkts := ev.Packets
	if pkts < 1 {
		pkts = 1
	}
	at := now.Add(sim.Nanosecond)
	for i := 0; i < srcs; i++ {
		src := (ev.A + 1 + i) % nodes
		netsim.ScheduleNode(net, src, at, &incastSender{
			net: net, src: src, dst: ev.A, count: pkts, size: c.PacketSize,
		})
	}
	return nil
}

// Package faults is the deterministic, time-driven fault-injection layer.
// A fault script is a typed timeline of events — switch/link/node death and
// restoration, degraded-laser operation (elevated per-hop drop probability)
// and incast storm overlays — applied to a network at sharded-engine barrier
// boundaries. Because every boundary is a full barrier at a time that does
// not depend on the shard count, a scripted run's statistics stay
// bit-identical for any K, faults active or not (DESIGN.md §11).
//
// The package defines the script model and the Controller that netsim.Drive
// applies at its slice boundaries; the networks implement Target
// (core.Network for the optical fabric, the shared elecnet router engine
// for the electrical baselines).
package faults

import (
	"fmt"

	"baldur/internal/sim"
)

// Action enumerates the fault-event verbs a network can be asked to apply.
type Action uint8

const (
	// KillSwitch marks a switch (core: stage A, switch B) or router
	// (elecnet: router A) dead: every packet reaching it is dropped.
	KillSwitch Action = iota
	// RestoreSwitch brings a killed switch/router back.
	RestoreSwitch
	// KillLink severs a link: core interprets A as the node whose host
	// fiber is cut; elecnet kills router A's output port B.
	KillLink
	// RestoreLink repairs a severed link.
	RestoreLink
	// KillNode severs node A's attachment (host link on both networks).
	KillNode
	// RestoreNode reattaches node A.
	RestoreNode
	// SetDegrade enables degraded-laser operation: every hop additionally
	// drops with probability Prob (network-wide).
	SetDegrade
	// ClearDegrade restores healthy lasers.
	ClearDegrade
	// StartIncast is handled by the driver, not the network: Count
	// sources each burst-inject Packets packets to node A at the event
	// time.
	StartIncast
)

// String names the action for reports and traces.
func (a Action) String() string {
	switch a {
	case KillSwitch:
		return "kill_switch"
	case RestoreSwitch:
		return "restore_switch"
	case KillLink:
		return "kill_link"
	case RestoreLink:
		return "restore_link"
	case KillNode:
		return "kill_node"
	case RestoreNode:
		return "restore_node"
	case SetDegrade:
		return "degrade"
	case ClearDegrade:
		return "clear_degrade"
	case StartIncast:
		return "incast"
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// Event is one timed fault. The coordinate fields A/B are interpreted per
// action and per network (see Action).
type Event struct {
	At     sim.Time
	Action Action
	A, B   int
	// Prob is the per-hop drop probability (SetDegrade).
	Prob float64
	// Count/Packets size an incast overlay (StartIncast).
	Count, Packets int
}

// Script is a compiled fault timeline: events sorted by time (ties keep
// compile order). Scripts are immutable once compiled; one Script can drive
// any number of runs.
type Script struct {
	Name   string
	Events []Event
}

// Target is implemented by networks that accept scripted faults. ApplyFault
// is only called at barrier boundaries (all shard goroutines parked), so the
// implementation may mutate any model state, but must do so deterministically
// and must keep its conservation ledgers intact: in-flight state affected by
// a kill drains into drop counters, never leaks.
type Target interface {
	ApplyFault(ev Event) error
}

package gatesim

import (
	"baldur/internal/telemetry"
)

// gateProbe is the circuit's resolved telemetry handles. A nil probe (the
// default) disables recording at the cost of one nil check in setLevel.
type gateProbe struct {
	transitions telemetry.Count
	ring        *telemetry.Ring
}

// AttachTelemetry registers the circuit's metrics and starts recording wire
// transitions into the flight recorder as KindLevel records (Pkt/Src carry
// the node id, Aux the new level). Gatesim runs in femtosecond ticks, so
// pair this with telemetry.Options{TickPS: 0.001} for correctly scaled
// exports. Call before the run starts, at most once.
func (c *Circuit) AttachTelemetry(tel *telemetry.Telemetry) {
	reg := tel.Reg
	c.tp = &gateProbe{
		transitions: reg.Count(reg.Counter("transitions"), 0),
		ring:        tel.Ring(0),
	}
	lit := reg.Count(reg.Gauge("lit_nodes"), 0)
	nodes := reg.Count(reg.Gauge("nodes"), 0)
	tel.OnProbe(func() {
		var n uint64
		for _, nd := range c.nodes {
			if nd.level {
				n++
			}
		}
		lit.Set(n)
		nodes.Set(uint64(len(c.nodes)))
	})
}

package core

import (
	"fmt"

	"baldur/internal/sim"
	"baldur/internal/topo"
)

// AnalyticalInputs are the model parameters of a configured Baldur network,
// exported for the analytical twin (internal/twin). They are produced by the
// same derivation New uses to build the event-level simulator, so the two
// tiers cannot drift apart: wire occupancies, the inter-packet gap, the
// per-stage latency and the retransmission timeout all come from one place.
type AnalyticalInputs struct {
	// Cfg is the effective configuration after defaults.
	Cfg Config
	// MB is the multi-stage wiring (identical to the simulator's, including
	// the seed-driven random matchings).
	MB *topo.MultiButterfly
	// DataDur / AckDur are the wire occupancy of a data packet / ACK:
	// serialization plus the length-encoded routing header.
	DataDur sim.Duration
	AckDur  sim.Duration
	// Gap is the inter-packet dark gap a wire needs between packets.
	Gap sim.Duration
	// PerStage is the latency of one switch stage (switch + waveguide).
	PerStage sim.Duration
	// RTO is the effective retransmission timeout.
	RTO sim.Duration
}

// buildTopo constructs the configured multi-stage wiring. cfg must already
// have defaults applied.
func buildTopo(cfg Config) (*topo.MultiButterfly, error) {
	switch cfg.Topology {
	case "", "multibutterfly":
		return topo.NewMultiButterfly(cfg.Nodes, cfg.Multiplicity, cfg.Seed)
	case "butterfly":
		return topo.NewRegularButterfly(cfg.Nodes, cfg.Multiplicity)
	case "omega":
		return topo.NewOmega(cfg.Nodes, cfg.Multiplicity)
	case "benes":
		return topo.NewBenes(cfg.Nodes, cfg.Multiplicity, cfg.Seed, true)
	case "benes-regular":
		// Regular wiring, random routing: isolates the two randomness
		// sources (wiring vs Valiant distribution).
		return topo.NewBenes(cfg.Nodes, cfg.Multiplicity, cfg.Seed, false)
	}
	return nil, fmt.Errorf("core: unknown topology %q", cfg.Topology)
}

// deriveTiming computes the wire and protocol durations for a defaulted
// configuration and its wiring.
func deriveTiming(cfg Config, mb *topo.MultiButterfly) (dataDur, ackDur, gap, rto sim.Duration) {
	dataDur = sim.SerializationTime(cfg.PacketSize, cfg.LinkRate) + headerDuration(mb.Stages)
	ackDur = sim.SerializationTime(cfg.AckSize, cfg.LinkRate) + headerDuration(mb.Stages)
	// A wire must stay dark for 6T (the end-of-packet window of the line
	// activity detector) plus latch-recycle margin between packets.
	gap = sim.Nanoseconds(0.25)
	if cfg.RTO == 0 {
		// Zero-load round trip: two host links each way, the stage
		// pipeline each way, plus both serializations — then 3x margin
		// for queueing at the receiver before the ACK goes out.
		oneWay := 2*cfg.LinkDelay + sim.Duration(mb.Stages)*(cfg.SwitchLatency+cfg.InterStageDelay)
		rtt := 2*oneWay + dataDur + ackDur
		rto = 3 * rtt
	} else {
		rto = cfg.RTO
	}
	return dataDur, ackDur, gap, rto
}

// Analytical derives the analytical inputs for a configuration without
// building the event-level network.
func Analytical(cfg Config) (AnalyticalInputs, error) {
	if err := cfg.applyDefaults(); err != nil {
		return AnalyticalInputs{}, err
	}
	mb, err := buildTopo(cfg)
	if err != nil {
		return AnalyticalInputs{}, err
	}
	in := AnalyticalInputs{Cfg: cfg, MB: mb}
	in.DataDur, in.AckDur, in.Gap, in.RTO = deriveTiming(cfg, mb)
	in.PerStage = cfg.SwitchLatency + cfg.InterStageDelay
	return in, nil
}

// Package core implements the Baldur network simulator: the paper's primary
// contribution. Baldur is a bufferless, clock-less multi-butterfly of 2x2
// all-optical TL switches with path multiplicity. Packets are switched
// on-the-fly in the optical domain; congestion is handled by dropping the
// losing packet, and the server-node NICs provide reliability through ACKs,
// local-timer retransmission and binary exponential backoff (Sec IV-E).
//
// Model fidelity: the per-stage latency, the number of gates and the
// multiplicity-dependent drop behaviour follow Table V; links and packet
// sizes follow Table VI (100 ns host links, 25 Gbps line rate, 512 B
// packets). Switches never buffer: an output wire of the routed direction is
// either free at head-arrival time — and then carries the packet for its
// full serialization — or the packet is dropped at that stage.
package core

import (
	"fmt"

	"baldur/internal/faults"
	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/stats"
	"baldur/internal/telemetry"
	"baldur/internal/tl"
	"baldur/internal/topo"
)

// Config parametrizes a Baldur network. The zero value is completed by
// applyDefaults to the paper's Table VI configuration.
type Config struct {
	// Nodes is the number of server nodes (a power of two >= 4).
	Nodes int
	// Multiplicity is the path multiplicity m; 0 selects the paper's
	// design rule for the node count (tl.RequiredMultiplicity).
	Multiplicity int
	// PacketSize is the data packet size in bytes (default 512).
	PacketSize int
	// AckSize is the acknowledgement size in bytes (default 32).
	AckSize int
	// LinkRate is the line data rate in bit/s (default 25 Gbps).
	LinkRate float64
	// LinkDelay is the host-to-network (and network-to-host) fiber delay
	// (default 100 ns, Table VI).
	LinkDelay sim.Duration
	// InterStageDelay is the waveguide delay between stages inside the
	// optical interposers (default 0; the paper folds it into the 100 ns
	// links).
	InterStageDelay sim.Duration
	// SwitchLatency is the per-stage switch latency; 0 selects Table V's
	// value for the multiplicity.
	SwitchLatency sim.Duration
	// RTO is the retransmission timeout; 0 derives it from the zero-load
	// round trip plus margin.
	RTO sim.Duration
	// BEBSlot is the binary-exponential-backoff slot (default 200 ns,
	// about one zero-load round trip).
	BEBSlot sim.Duration
	// MaxBackoffExp caps the backoff exponent (default 10, as in
	// classical BEB).
	MaxBackoffExp int
	// DisableBEB turns binary exponential backoff off (ablation).
	DisableBEB bool
	// DisableRetransmit turns the whole reliability protocol off: drops
	// become losses. Used for raw drop-rate measurements (Table V).
	DisableRetransmit bool
	// MaxAttempts caps the transmission attempts per data packet (the
	// original send plus retransmissions). When the cap is reached the
	// sender abandons the packet instead of rearming the timer
	// (Stats.GaveUp), so runs with unreachable destinations — dead
	// switches, severed links — still drain. 0 means unlimited, the
	// paper's protocol.
	MaxAttempts int
	// Topology selects the multi-stage wiring: "" or "multibutterfly"
	// (randomized matchings, the paper's design), "butterfly" (a classic
	// deterministic butterfly — the ablation of the expansion property:
	// without randomization the network is not immune to worst-case
	// permutations, Sec IV-E) or "omega" (perfect-shuffle stages — the
	// paper expects equivalent behaviour across multi-stage topologies,
	// Sec IV).
	Topology string
	// Wavelengths enables wavelength-division multiplexing on the
	// network wires: each inter-stage wire carries this many independent
	// lambda channels (Sec III notes TLs of different bandgaps support
	// WDM). Host links remain single-channel (one modulator per NIC).
	// Default 1 (the paper's evaluated configuration).
	Wavelengths int
	// Seed drives topology randomization and backoff draws.
	Seed uint64
	// Shards selects the parallel execution width: 0 or 1 runs serially;
	// K >= 2 partitions the model into the optical fabric (one shard) plus
	// K-1 contiguous NIC blocks, executed as a conservative PDES with the
	// host link delay as lookahead. Statistics are bit-identical to the
	// serial run for any K.
	Shards int
}

func (c *Config) applyDefaults() error {
	if c.Nodes == 0 {
		c.Nodes = 1024
	}
	if c.Multiplicity == 0 {
		c.Multiplicity = tl.RequiredMultiplicity(c.Nodes)
	}
	if c.Multiplicity < 1 {
		return fmt.Errorf("core: multiplicity %d < 1", c.Multiplicity)
	}
	if c.PacketSize == 0 {
		c.PacketSize = 512
	}
	if c.AckSize == 0 {
		c.AckSize = 32
	}
	if c.LinkRate == 0 {
		c.LinkRate = 25e9
	}
	if c.LinkDelay == 0 {
		c.LinkDelay = 100 * sim.Nanosecond
	}
	if c.SwitchLatency == 0 {
		c.SwitchLatency = sim.Nanoseconds(tl.SwitchLatencyNS(c.Multiplicity))
	}
	if c.BEBSlot == 0 {
		c.BEBSlot = 200 * sim.Nanosecond
	}
	if c.MaxBackoffExp == 0 {
		c.MaxBackoffExp = 10
	}
	if c.Wavelengths == 0 {
		c.Wavelengths = 1
	}
	if c.Wavelengths < 1 {
		return fmt.Errorf("core: wavelengths %d < 1", c.Wavelengths)
	}
	return nil
}

// Stats aggregates the network-wide counters of one run: the packet ledger
// (embedded, so n.Stats.Injected and friends read it directly) plus
// Baldur's own diagnostics.
type Stats struct {
	netsim.Counters
	// DropsByStage histograms where contention bites.
	DropsByStage []uint64
	// MaxRetxBufBytes is the high-water mark of any node's unACKed
	// buffer (the paper provisions 1 MB; measures 536 KB at load 0.7).
	MaxRetxBufBytes int
	// AckLatency collects ACK round-trip times (ns) for diagnostics.
	AckLatency stats.Running
}

// Network is a Baldur network instance. It implements netsim.Network and
// netsim.Sharded.
type Network struct {
	cfg Config
	se  *sim.ShardedEngine
	mb  *topo.MultiButterfly
	// nics is one contiguous slab indexed by node id; it is sized once at
	// construction and never reallocated, so &nics[i] pointers stay valid
	// for the life of the network.
	nics []nic

	// shards[0] is the optical fabric (and, when serial, everything);
	// shards[1..] hold NIC blocks. fab/fabEng/fabAct are shard 0's handles,
	// used by traverse and the receive handoff.
	shards []*coreShard
	fab    *coreShard
	fabEng *sim.Engine
	fabAct sim.Actor

	// busy[s*busyStride + k*2m*w + d*m*w + slot] is the time until which
	// that output (wire, lambda) of switch k at stage s is carrying a
	// packet: one flat array for the whole fabric instead of a slice per
	// stage. Touched only by the fabric shard.
	busy       []sim.Time
	busyStride int

	onDeliver []func(*netsim.Packet, sim.Time)
	gap       sim.Duration // inter-packet dark gap a wire needs (6T + margin)
	duration  sim.Duration // data packet wire occupancy
	ackDur    sim.Duration
	rto       sim.Duration
	// flight is the fixed transmit-start→delivery time of a successful
	// data attempt: serialization + both host fibers + every stage's
	// switch latency and inter-stage fiber. Baldur's fabric is bufferless,
	// so every delivered packet spends exactly this long in flight; the
	// lifecycle tracer uses it to reconstruct the delivered attempt's
	// per-stage spans at the destination without touching sender state.
	flight sim.Duration

	// dbgDrop, when non-nil, observes every drop (testing hook; fabric
	// shard only).
	dbgDrop func(p *netsim.Packet, stage int)

	// Fault state (Sec IV-F diagnosis plus internal/faults scripting):
	// deadSwitch is a set over (stage, switch), deadLink a set over severed
	// host fibers, degrade the per-hop drop probability of degraded-laser
	// operation and degradeRNG the fabric-shard stream behind its draws.
	// faulty caches "any fault active" so the healthy traverse path pays
	// one predictable branch per site; testPath >= 0 forces deterministic
	// single-path routing.
	faulty     bool
	deadSwitch faults.Bitset
	deadLink   faults.Bitset
	degrade    float64
	degradeRNG *sim.RNG
	testPath   int

	Stats Stats
}

// New builds a Baldur network.
func New(cfg Config) (*Network, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	mb, err := buildTopo(cfg)
	if err != nil {
		return nil, err
	}
	n := &Network{cfg: cfg, mb: mb}
	n.duration, n.ackDur, n.gap, n.rto = deriveTiming(cfg, mb)
	perStage := cfg.SwitchLatency + cfg.InterStageDelay
	n.flight = n.duration + 2*cfg.LinkDelay + sim.Duration(mb.Stages)*perStage
	// One slot per (stage, wire, lambda channel).
	n.busyStride = mb.SwitchesPerStage() * 2 * cfg.Multiplicity * cfg.Wavelengths
	n.busy = make([]sim.Time, mb.Stages*n.busyStride)
	n.Stats.DropsByStage = make([]uint64, mb.Stages)
	n.testPath = -1
	n.degradeRNG = sim.NewRNG(cfg.Seed ^ 0xdec4ade)

	// Shard layout: serial runs use one shard aliasing n.Stats; parallel
	// runs dedicate shard 0 to the fabric and spread NICs in contiguous
	// blocks over shards 1..K-1. The lookahead is the host link delay —
	// the minimum latency of every NIC<->fabric interaction.
	k := cfg.Shards
	if k < 2 {
		k = 1
	} else if k-1 > cfg.Nodes {
		k = cfg.Nodes + 1
	}
	n.se = sim.NewShardedEngine(k, cfg.LinkDelay)
	n.shards = make([]*coreShard, k)
	for i := range n.shards {
		st := &n.Stats
		if k > 1 {
			st = &Stats{DropsByStage: make([]uint64, mb.Stages)}
		}
		n.shards[i] = &coreShard{sh: n.se.Shard(i), stats: st}
	}
	n.fab = n.shards[0]
	n.fabEng = n.fab.sh.Eng
	n.fabAct = sim.MakeActor(1)

	base := sim.NewRNG(cfg.Seed ^ 0xba1d0e)
	n.nics = make([]nic, cfg.Nodes)
	for i := range n.nics {
		shard := n.shards[0]
		if k > 1 {
			shard = n.shards[1+i*(k-1)/cfg.Nodes]
		}
		n.nics[i].init(n, i, shard, base.Fork(uint64(i)+1))
	}
	return n, nil
}

// headerDuration is the on-wire time of the length-encoded routing header:
// one 3T slot per stage at the 60 Gbps encoding rate (T = 16.667 ps).
func headerDuration(stages int) sim.Duration {
	const slotPS = 50 // 3T = 50 ps
	return sim.Duration(stages*slotPS) * sim.Picosecond
}

// Engine returns the simulation engine (shard 0's engine, which holds the
// whole network when serial). Sharded runs are driven through Run instead.
func (n *Network) Engine() *sim.Engine { return n.fabEng }

// NumNodes returns the node count.
func (n *Network) NumNodes() int { return n.cfg.Nodes }

// Config returns the effective (defaulted) configuration.
func (n *Network) Config() Config { return n.cfg }

// Multiplicity returns the effective path multiplicity.
func (n *Network) Multiplicity() int { return n.cfg.Multiplicity }

// Stages returns the number of switch stages (log2 N).
func (n *Network) Stages() int { return n.mb.Stages }

// OnDeliver registers a unique-delivery callback. Multiple callbacks are
// invoked in registration order (e.g. a stats collector plus a closed-loop
// workload driver).
func (n *Network) OnDeliver(fn func(p *netsim.Packet, at sim.Time)) {
	n.onDeliver = append(n.onDeliver, fn)
}

// Send creates and enqueues a data packet. It panics on invalid node ids
// (always a workload bug).
func (n *Network) Send(src, dst, size int) *netsim.Packet {
	if src < 0 || src >= n.cfg.Nodes || dst < 0 || dst >= n.cfg.Nodes {
		panic(fmt.Sprintf("core: Send(%d,%d) outside [0,%d)", src, dst, n.cfg.Nodes))
	}
	if size <= 0 {
		size = n.cfg.PacketSize
	}
	nic := &n.nics[src]
	// IDs are per-source (high bits = src+1) so allocation is shard-local
	// and the numbering is invariant to shard count.
	p := &netsim.Packet{
		ID:      uint64(src+1)<<32 | (nic.nextSeq + 1),
		Src:     src,
		Dst:     dst,
		Size:    size,
		Created: nic.eng.Now(),
		Seq:     nic.nextSeq,
	}
	nic.nextSeq++
	nic.sh.stats.Injected++
	if tp := nic.sh.tp; tp != nil {
		if tp.ring != nil {
			tp.ring.Add(telemetry.Record{
				At: p.Created, Pkt: p.ID, Kind: telemetry.KindInject,
				Src: int32(src), Dst: int32(dst), Loc: -1,
			})
		}
		if telemetry.Sampled(p.ID, tp.traceEvery) {
			p.Traced = true
			p.TraceCursor = p.Created
		}
	}
	nic.enqueueData(p)
	return p
}

// Pending reports whether any data packet is still in flight or queued
// anywhere (used by harnesses to decide when a run has drained).
func (n *Network) Pending() bool {
	for i := range n.nics {
		nc := &n.nics[i]
		if nc.queueLen() > 0 || nc.outstanding.Len() > 0 {
			return true
		}
	}
	return false
}

// traverse evaluates a transmission's full path through the network. It is
// called once, when the head reaches stage 0; because every packet incurs
// the identical per-stage latency, head arrivals at every stage preserve
// injection order, so wire occupancy can be resolved immediately for the
// whole path without per-stage events.
func (n *Network) traverse(p *netsim.Packet, t0 sim.Time) {
	m := n.cfg.Multiplicity
	dur := n.duration
	tp := n.fab.tp
	if p.Ack {
		dur = n.ackDur
		n.fab.stats.AckAttempts++
	} else {
		n.fab.stats.DataAttempts++
	}
	perStage := n.cfg.SwitchLatency + n.cfg.InterStageDelay
	sw, _ := n.mb.InjectionSwitch(p.Src)
	if n.faulty && n.deadLink.Get(p.Src) {
		// The source's host fiber is cut: the attempt never reaches
		// stage 0.
		n.dropFault(p, t0)
		return
	}
	t := t0
	for s := 0; s < n.mb.Stages; s++ {
		if n.faulty {
			if n.deadSwitch.Get(s*n.mb.SwitchesPerStage() + int(sw)) {
				// The faulty switch loses everything.
				n.fab.stats.FaultDrops++
				n.drop(p, s, t)
				return
			}
			if n.degrade > 0 && n.degradeRNG.Float64() < n.degrade {
				// Degraded laser: the hop's light level is below the
				// detection threshold.
				n.fab.stats.FaultDrops++
				n.drop(p, s, t)
				return
			}
		}
		d := n.routeBit(p, s)
		w := n.cfg.Wavelengths
		base := s*n.busyStride + (int(sw)*2*m+d*m)*w
		found := -1 // slot index: path*W + lambda
		if n.testPath >= 0 {
			// Diagnostic mode: only the configured path is enabled
			// (lambda 0).
			if n.busy[base+n.testPath*w] <= t {
				found = n.testPath * w
			}
		} else {
			for q := 0; q < m*w; q++ {
				if n.busy[base+q] <= t {
					found = q
					break
				}
			}
		}
		if found < 0 {
			// Every (path, lambda) of the direction is carrying a
			// packet: bufferless drop. Wires already granted
			// upstream still carry the dead packet's light; they
			// stay occupied.
			n.drop(p, s, t)
			return
		}
		n.busy[base+found] = t.Add(dur + n.gap)
		if tp != nil {
			tp.hops.Inc()
			if tp.ring != nil {
				tp.ring.Add(telemetry.Record{
					At: t, Dur: dur, Pkt: p.ID, Kind: telemetry.KindHop,
					Src: int32(p.Src), Dst: int32(p.Dst),
					Loc: int32(s), Aux: int32(sw),
				})
			}
		}
		ref := n.mb.OutWire(s, sw, d, found/w)
		sw = ref.Switch
		t = t.Add(perStage)
	}
	// sw is now the destination node id; last bit lands after the output
	// host link plus the serialization time.
	if n.faulty && n.deadLink.Get(int(sw)) {
		n.dropFault(p, t)
		return
	}
	n.postReceive(t.Add(n.cfg.LinkDelay+dur), &n.nics[sw], p)
}

// routeBit returns the output direction for packet p at stage s: a
// per-attempt random bit in a Benes distribution stage, the destination bit
// otherwise.
func (n *Network) routeBit(p *netsim.Packet, s int) int {
	if s < n.mb.DistStages {
		return int(p.RouteTag>>uint(s)) & 1
	}
	return n.mb.RoutingBit(p.Dst, s)
}

func (n *Network) drop(p *netsim.Packet, stage int, t sim.Time) {
	n.fab.stats.DropsByStage[stage]++
	if n.dbgDrop != nil {
		n.dbgDrop(p, stage)
	}
	if tp := n.fab.tp; tp != nil && tp.ring != nil {
		tp.ring.Add(telemetry.Record{
			At: t, Pkt: p.ID, Kind: telemetry.KindDrop,
			Src: int32(p.Src), Dst: int32(p.Dst), Loc: int32(stage),
		})
	}
	if p.Ack {
		n.fab.stats.AckDrops++
		n.fab.releaseAck(p)
		return
	}
	n.fab.stats.DataDrops++
	// The source discovers the loss via its local timer; nothing else to do
	// here — the timeout event is already scheduled. (With the protocol
	// disabled the packet is simply lost; nothing tracks it: enqueueData
	// skips the outstanding set in that mode.)
}

// dropFault loses a transmission to a severed host link: the same ledgers as
// an in-network drop (so the attempt accounting stays exact) but attributed
// to FaultDrops instead of a contention stage.
func (n *Network) dropFault(p *netsim.Packet, t sim.Time) {
	n.fab.stats.FaultDrops++
	if n.dbgDrop != nil {
		n.dbgDrop(p, -1)
	}
	if tp := n.fab.tp; tp != nil && tp.ring != nil {
		tp.ring.Add(telemetry.Record{
			At: t, Pkt: p.ID, Kind: telemetry.KindDrop,
			Src: int32(p.Src), Dst: int32(p.Dst), Loc: -1,
		})
	}
	if p.Ack {
		n.fab.stats.AckDrops++
		n.fab.releaseAck(p)
		return
	}
	n.fab.stats.DataDrops++
}

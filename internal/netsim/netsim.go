// Package netsim defines the packet type and the network-simulator
// interface shared by Baldur (internal/core), the electrical baselines
// (internal/elecnet) and the workload drivers (internal/traffic,
// internal/trace). Keeping the contract here lets every workload run
// unchanged against every network.
package netsim

import (
	"baldur/internal/check"
	"baldur/internal/sim"
	"baldur/internal/stats"
	"baldur/internal/telemetry"
)

// Packet is one network packet. Packets are created by Network.Send and
// owned by the network until delivery.
type Packet struct {
	ID      uint64
	Src     int
	Dst     int
	Size    int // bytes on the wire
	Created sim.Time

	// Ack marks Baldur acknowledgement packets (internal to the
	// retransmission protocol; never surfaced through OnDeliver).
	Ack bool
	// Seq is the per-source sequence number used for ACK matching and
	// receiver-side deduplication.
	Seq uint64
	// AckFor is the sequence being acknowledged (ACK packets only).
	AckFor uint64
	// Retries counts retransmissions so far.
	Retries int
	// RouteTag carries the per-attempt random routing bits used by the
	// distribution stages of Benes-style topologies (Valiant routing);
	// unused (0) on destination-tag-only networks.
	RouteTag uint64
	// NotBefore delays (re)transmission until the given time (binary
	// exponential backoff).
	NotBefore sim.Time
	// Acked marks packets whose ACK arrived while they were still queued
	// for retransmission; the NIC discards them instead of sending.
	Acked bool
	// Flow tags packets belonging to a service-workload flow
	// (internal/workload); 0 means the packet is not flow traffic. The
	// tag, tenant and per-flow packet count ride in the packet so the
	// destination shard can account flow completion without any
	// cross-shard reads: every packet of a flow shares one (src, dst)
	// pair, so all of a flow's deliveries land on the destination node's
	// shard.
	Flow uint64
	// FlowPackets is the total packet count of the flow Flow belongs to.
	FlowPackets int32
	// Tenant is the 1-based tenant index of the flow's owner (0 = none).
	Tenant int32
	// Traced marks packets selected by the deterministic lifecycle-trace
	// sampler (telemetry.Sampled on the packet id). Only the shard that
	// owns the packet may read or write TraceCursor.
	Traced bool
	// TraceCursor is the start of the traced packet's current lifecycle
	// phase; networks advance it as they emit spans so that consecutive
	// spans tile the packet's life with no gaps or overlaps.
	TraceCursor sim.Time
}

// Reset clears p for reuse. Networks that recycle packets whose lifetime
// they fully control (e.g. Baldur ACKs, which never surface through
// OnDeliver) call this when taking a packet from their pool.
func (p *Packet) Reset() { *p = Packet{} }

// Network is a simulated interconnect. Implementations are externally
// single-threaded: all calls must happen from the owning goroutine or from
// within engine events.
type Network interface {
	// Engine returns the event engine driving this network (the first
	// shard's engine on sharded networks). Serial workload generators
	// schedule their injections on it.
	Engine() *sim.Engine
	// NumNodes returns the number of server nodes.
	NumNodes() int
	// Send creates a data packet from src to dst and hands it to src's
	// NIC at the current virtual time. It returns the packet.
	Send(src, dst, size int) *Packet
	// OnDeliver registers the delivery callback, invoked exactly once
	// per unique data packet when its last bit reaches the destination.
	// On sharded networks the callback runs on the destination node's
	// shard; callbacks must only touch per-node or per-shard state.
	OnDeliver(fn func(p *Packet, at sim.Time))
	// Counters returns the network's packet ledger, folded across shards
	// as of the last Run boundary.
	Counters() Counters
}

// Counters is a network's packet ledger: the counters the conservation
// audit reconciles and the differential compares across shard counts.
// Every network stores its ledger in this type — one per shard, folded into
// an aggregate with Add at each Run boundary. Networks fill the fields
// their model has and leave the rest zero (the electrical networks keep no
// attempts or retransmissions; Baldur keeps no hop bound).
type Counters struct {
	Injected        uint64 // unique data packets handed to Send
	Delivered       uint64 // unique data packets delivered
	Duplicates      uint64 // redundant deliveries discarded by dedup
	DataAttempts    uint64 // data transmissions entering the fabric
	DataDrops       uint64 // data transmissions dropped in-network
	AckAttempts     uint64
	AckDrops        uint64
	Retransmissions uint64
	// GaveUp counts data packets abandoned unacknowledged at the attempt
	// cap: the sender cleared them from its retransmission buffer.
	GaveUp uint64
	// FaultDrops counts transmissions lost to injected faults. On Baldur
	// it is a subset of DataDrops+AckDrops, never an extra loss category.
	FaultDrops uint64
	// Dropped counts packets lost to faults on the lossless electrical
	// networks (zero in a fault-free run).
	Dropped uint64
	MaxHops int
}

// Add folds o into c: sums for the counters, max for the hop bound. Both
// are invariant to the fold order, so a ledger folded across shards is
// identical for any shard count.
func (c *Counters) Add(o Counters) {
	c.Injected += o.Injected
	c.Delivered += o.Delivered
	c.Duplicates += o.Duplicates
	c.DataAttempts += o.DataAttempts
	c.DataDrops += o.DataDrops
	c.AckAttempts += o.AckAttempts
	c.AckDrops += o.AckDrops
	c.Retransmissions += o.Retransmissions
	c.GaveUp += o.GaveUp
	c.FaultDrops += o.FaultDrops
	c.Dropped += o.Dropped
	c.MaxHops = max(c.MaxHops, o.MaxHops)
}

// DataDropRate returns dropped / attempted data transmissions (0 with no
// attempts), the metric of Table V.
func (c Counters) DataDropRate() float64 {
	if c.DataAttempts == 0 {
		return 0
	}
	return float64(c.DataDrops) / float64(c.DataAttempts)
}

// ledgerMetrics maps the telemetry counter names of the ledger fields to
// their readers.
var ledgerMetrics = map[string]func(*Counters) uint64{
	"injected":        func(c *Counters) uint64 { return c.Injected },
	"delivered":       func(c *Counters) uint64 { return c.Delivered },
	"duplicates":      func(c *Counters) uint64 { return c.Duplicates },
	"data_attempts":   func(c *Counters) uint64 { return c.DataAttempts },
	"data_drops":      func(c *Counters) uint64 { return c.DataDrops },
	"ack_attempts":    func(c *Counters) uint64 { return c.AckAttempts },
	"ack_drops":       func(c *Counters) uint64 { return c.AckDrops },
	"retransmissions": func(c *Counters) uint64 { return c.Retransmissions },
	"dropped":         func(c *Counters) uint64 { return c.Dropped },
}

// SampleLedger registers the named ledger fields as telemetry counters, in
// the given order, and hooks a probe that sets each shard's slot from that
// shard's stored ledger (shards[i] belongs to shard i) at every sample. The
// model keeps one copy of each counter; telemetry reads it at barriers
// instead of counting beside it. Reg.Total of a ledger counter is therefore
// current as of the last sample: Drive samples at its final boundary and
// the trace replayer at drain, so readers after a run see end-of-run values.
func SampleLedger(tel *telemetry.Telemetry, shards []*Counters, names ...string) {
	type series struct {
		get   func(*Counters) uint64
		slots []telemetry.Count
	}
	all := make([]series, len(names))
	for j, name := range names {
		get, ok := ledgerMetrics[name]
		if !ok {
			panic("netsim: unknown ledger metric " + name)
		}
		id := tel.Reg.Counter(name)
		all[j] = series{get: get, slots: make([]telemetry.Count, len(shards))}
		for i := range shards {
			all[j].slots[i] = tel.Reg.Count(id, i)
		}
	}
	tel.OnProbe(func() {
		for _, s := range all {
			for i, c := range shards {
				s.slots[i].Set(s.get(c))
			}
		}
	})
}

// Sharded is implemented by networks that support multi-shard parallel
// execution (internal/core, internal/elecnet). Serial-only networks just
// implement Network; the package-level helpers below fall back to the
// engine for those.
type Sharded interface {
	Network
	// Run dispatches all events up to and including deadline across every
	// shard, folds per-shard statistics, and reports whether events remain.
	Run(deadline sim.Time) bool
	// Events returns the total number of dispatched events.
	Events() uint64
	// NumShards returns the shard count K (1 when serial).
	NumShards() int
	// NodeShard returns the shard owning a node's NIC.
	NodeShard(node int) int
	// ScheduleNode schedules ev at time t on node's shard with a
	// deterministic per-node tie-break key. It must be called either
	// before the run starts or from an event already executing on that
	// node's shard.
	ScheduleNode(node int, t sim.Time, ev sim.Event)
}

// Instrumented is implemented by networks that can record into a telemetry
// layer. AttachTelemetry registers the network's metrics in tel's registry,
// resolves per-shard probe handles, and hooks a gauge-refresh callback; it
// must be called before the run starts, at most once per network instance.
type Instrumented interface {
	Network
	AttachTelemetry(tel *telemetry.Telemetry)
}

// Audited is implemented by networks that can attach the invariant-audit
// layer. AttachAudit registers the network's conservation ledgers and pool
// censuses as checkpoint callbacks on a and arms the per-shard audit
// counters; it must be called before the run starts, at most once per
// network instance. Runs driven by Drive with the auditor set then evaluate
// every ledger at each slice barrier and once more when the run drains or
// hits the deadline.
type Audited interface {
	Network
	AttachAudit(a *check.Auditor)
}

// Script is a timeline of actions applied to a network at run barriers — a
// fault script (*faults.Controller implements it). Drive slices the run at
// each pending action time so the action lands on a full barrier.
type Script interface {
	// NextAt returns the time of the next unapplied action.
	NextAt() (sim.Time, bool)
	// Pending reports whether unapplied actions remain.
	Pending() bool
	// ApplyDue applies every action due at or before now and returns how
	// many it applied. It runs only at barriers.
	ApplyDue(n Network, now sim.Time, tel *telemetry.Telemetry) (int, error)
}

// DriveOptions are the boundary hooks of Drive. The zero value has none.
type DriveOptions struct {
	// Interval is the slice width between barriers (0: the telemetry
	// sample interval if Tel is set, else the audit interval if Aud is
	// set, else check.DefaultInterval).
	Interval sim.Duration
	// Tel, when non-nil, takes one metric sample at every boundary.
	Tel *telemetry.Telemetry
	// Aud, when non-nil, runs an audit checkpoint at every boundary.
	Aud *check.Auditor
	// Script, when non-nil, forces a boundary at each of its action times
	// and applies due actions after the boundary's hooks ran.
	Script Script
	// Observe, when non-nil, is called at every boundary after the network
	// ran to it (and before the boundary's due script actions apply). When
	// it returns true the run stops at that boundary.
	Observe func(at sim.Time, drained bool) (stop bool)
}

// Drive runs n to the deadline and reports whether events remain queued.
// With no hooks set it is exactly Run(n, deadline). Otherwise it runs in
// slices: each boundary lies one interval past the previous one (the first
// past the current time), pulled in to the script's next action time when
// that comes sooner, and clamped to the deadline. At each boundary it
// samples telemetry, checkpoints the auditor, calls Observe and applies the
// script's due actions, in that order; an Observe that asks to stop ends the
// run there, before the actions apply. Every boundary is a full barrier of
// the sharded engine at a time that does not depend on the shard count, so
// hooked runs stay bit-identical for any K. A run that drains with no
// script actions left stops at that boundary: every remaining slice would
// be an all-zero row (horizons are typically thousands of intervals long).
func Drive(n Network, deadline sim.Time, opts DriveOptions) (more bool, err error) {
	if opts.Tel == nil && opts.Aud == nil && opts.Script == nil && opts.Observe == nil {
		return Run(n, deadline), nil
	}
	iv := opts.Interval
	if iv == 0 {
		switch {
		case opts.Tel != nil:
			iv = opts.Tel.Interval()
		case opts.Aud != nil:
			iv = opts.Aud.Interval()
		default:
			iv = check.DefaultInterval
		}
	}
	now := n.Engine().Now()
	applied := 0
	// Actions due at or before the start apply before anything runs.
	if opts.Script != nil {
		if _, err := opts.Script.ApplyDue(n, now, opts.Tel); err != nil {
			return true, err
		}
	}
	for {
		t := now.Add(iv)
		if opts.Script != nil {
			if at, ok := opts.Script.NextAt(); ok && at < t {
				t = at
				if t <= now {
					t = now.Add(sim.Picosecond)
				}
			}
		}
		if t > deadline {
			t = deadline
		}
		more = Run(n, t)
		if opts.Tel != nil {
			opts.Tel.Sample(t, Events(n), Epochs(n))
		}
		drained := !more && (opts.Script == nil || !opts.Script.Pending())
		if opts.Aud != nil {
			opts.Aud.Checkpoint(t, drained)
		}
		if opts.Observe != nil && opts.Observe(t, drained) {
			return more, nil
		}
		if opts.Script != nil {
			if applied, err = opts.Script.ApplyDue(n, t, opts.Tel); err != nil {
				return more, err
			}
		}
		if t >= deadline {
			return more, nil
		}
		if drained && applied == 0 {
			return false, nil
		}
		now = t
	}
}

// Run drives n to the deadline: the sharded fast path when available,
// otherwise the plain engine. It returns true if events remain queued.
func Run(n Network, deadline sim.Time) bool {
	if s, ok := n.(Sharded); ok {
		return s.Run(deadline)
	}
	return n.Engine().RunUntil(deadline)
}

// Events returns the number of events n has dispatched.
func Events(n Network) uint64 {
	if s, ok := n.(Sharded); ok {
		return s.Events()
	}
	return n.Engine().Executed
}

// NumShards returns n's shard count (1 for serial-only networks).
func NumShards(n Network) int {
	if s, ok := n.(Sharded); ok {
		return s.NumShards()
	}
	return 1
}

// NodeShard returns the shard owning node (0 for serial-only networks).
func NodeShard(n Network, node int) int {
	if s, ok := n.(Sharded); ok {
		return s.NodeShard(node)
	}
	return 0
}

// ScheduleNode schedules ev at t against node's shard. On serial-only
// networks it uses the engine's FIFO path.
func ScheduleNode(n Network, node int, t sim.Time, ev sim.Event) {
	if s, ok := n.(Sharded); ok {
		s.ScheduleNode(node, t, ev)
		return
	}
	n.Engine().Schedule(t, ev)
}

// Epochs returns how many lockstep synchronization epochs n's sharded
// engine has executed (0 for serial-only networks and single-shard runs,
// where no barriers exist).
func Epochs(n Network) uint64 {
	if e, ok := n.(interface{ Epochs() uint64 }); ok {
		return e.Epochs()
	}
	return 0
}

// Collector accumulates the latency statistics the paper reports: average
// and 99th-percentile ("tail") packet latency in nanoseconds.
//
// Deliveries are recorded into per-shard histograms (each updated only by
// its shard's goroutine) and exact per-node mean accumulators, then merged
// in fixed order on demand — so the reported statistics are bit-identical
// regardless of shard count. Attach may be called again after a run to
// reuse the collector's allocations for another network of the same shape.
type Collector struct {
	// Warmup, if set, excludes packets *created* before this virtual
	// time from the statistics (standard steady-state measurement
	// practice; deliveries still count toward Delivered).
	Warmup sim.Time

	shards    []colShard
	perNode   []nodeAcc
	nodeShard []int32
	merged    stats.Histogram
}

// colShard is one shard's slice of the statistics, padded so neighbouring
// shards' hot counters do not share a cache line.
type colShard struct {
	hist      stats.Histogram
	delivered uint64
	last      sim.Time // latest delivery seen by this shard
	_         [40]byte
}

// nodeAcc is one node's exact latency sum, merged in node order for an
// order-invariant mean.
type nodeAcc struct {
	sum float64
	n   int64
}

// Attach subscribes the collector to a network's deliveries, resetting any
// previously collected statistics while keeping allocations. Latency is
// measured from packet creation (entering the source queue) to last-bit
// delivery, the same definition CODES reports.
func (c *Collector) Attach(n Network) {
	k, nodes := NumShards(n), n.NumNodes()
	if len(c.shards) != k {
		c.shards = make([]colShard, k)
	} else {
		for i := range c.shards {
			c.shards[i].hist.Reset()
			c.shards[i].delivered = 0
			c.shards[i].last = 0
		}
	}
	if len(c.perNode) != nodes {
		c.perNode = make([]nodeAcc, nodes)
		c.nodeShard = make([]int32, nodes)
	} else {
		for i := range c.perNode {
			c.perNode[i] = nodeAcc{}
		}
	}
	for i := 0; i < nodes; i++ {
		c.nodeShard[i] = int32(NodeShard(n, i))
	}
	c.merged.Reset()
	n.OnDeliver(func(p *Packet, at sim.Time) {
		s := &c.shards[c.nodeShard[p.Dst]]
		s.delivered++
		if at > s.last {
			s.last = at
		}
		if p.Created < c.Warmup {
			return
		}
		lat := float64(at.Sub(p.Created).Nanoseconds())
		s.hist.Add(lat)
		acc := &c.perNode[p.Dst]
		acc.sum += lat
		acc.n++
	})
}

// Delivered returns the count of unique delivered packets.
func (c *Collector) Delivered() uint64 {
	var d uint64
	for i := range c.shards {
		d += c.shards[i].delivered
	}
	return d
}

// LastDelivery returns the virtual time of the latest delivery, folded as a
// max across shards (order-invariant, so the value is bit-identical for any
// shard count). Zero when nothing was delivered.
func (c *Collector) LastDelivery() sim.Time {
	var last sim.Time
	for i := range c.shards {
		if c.shards[i].last > last {
			last = c.shards[i].last
		}
	}
	return last
}

// Samples returns the number of latency observations (post-warmup).
func (c *Collector) Samples() int64 {
	var n int64
	for i := range c.perNode {
		n += c.perNode[i].n
	}
	return n
}

// AvgNS returns the mean packet latency in nanoseconds, computed from exact
// per-node sums folded in node order (shard-count invariant).
func (c *Collector) AvgNS() float64 {
	var sum float64
	var n int64
	for i := range c.perNode {
		sum += c.perNode[i].sum
		n += c.perNode[i].n
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TailNS returns the 99th-percentile packet latency in nanoseconds.
func (c *Collector) TailNS() float64 { return c.Merged().P99() }

// Merged returns the latency histogram folded across shards in shard order,
// recomputed on each call. Quantile queries on it are shard-count invariant
// (they depend only on integer bucket counts and exact min/max). The result
// is owned by the collector and valid until the next delivery or Attach.
func (c *Collector) Merged() *stats.Histogram {
	c.merged.Reset()
	for i := range c.shards {
		c.merged.Merge(&c.shards[i].hist)
	}
	return &c.merged
}

// AttachSpanAudit builds a check.SpanAudit and subscribes it to n's
// deliveries: every traced delivery is witnessed on the destination node's
// shard with exactly the (Created, at) pair the Collector derives latency
// from, which is what the span-attribution invariant is checked against.
// Attach before the run starts; call Verify/VerifyInto after it drains.
func AttachSpanAudit(n Network) *check.SpanAudit {
	a := check.NewSpanAudit(NumShards(n))
	nodes := n.NumNodes()
	nodeShard := make([]int32, nodes)
	for i := 0; i < nodes; i++ {
		nodeShard[i] = int32(NodeShard(n, i))
	}
	n.OnDeliver(func(p *Packet, at sim.Time) {
		if !p.Traced {
			return
		}
		a.Observe(int(nodeShard[p.Dst]), p.ID, p.Created, at)
	})
	return a
}

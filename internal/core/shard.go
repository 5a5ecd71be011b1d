package core

import (
	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/stats"
)

// coreShard is one partition of the Baldur model: either the optical fabric
// (shard 0 when sharded) or a contiguous block of NICs. Each shard owns an
// event queue, a slice of the statistics and the free lists its goroutine
// touches — nothing here is shared between shards during an epoch.
//
// With Shards <= 1 there is a single shard holding the whole network, and
// its stats pointer aliases Network.Stats so legacy serial callers (tests
// driving Engine().Run() directly) observe counters live.
type coreShard struct {
	sh      *sim.Shard
	stats   *Stats
	evFree  *coreEvent
	ackFree []*netsim.Packet
	// tp is the shard's telemetry probe; nil (the default) disables
	// recording, and every hook is guarded by that single nil check.
	tp *coreProbe
	// aud is the shard's audit counters; same nil-to-disable contract.
	aud *coreAudit
}

// Partitioning: shard 0 is the optical fabric — traverse() resolves a whole
// path against the global per-stage busy arrays, so the fabric is a single
// sequential actor — and shards 1..K-1 hold contiguous blocks of NICs. The
// lookahead is the host link delay (Table VI, 100 ns): every NIC<->fabric
// interaction crosses one host fiber, and NICs never talk to each other
// directly.

// Run dispatches all events up to and including deadline across every
// shard, folds per-shard statistics into n.Stats, and reports whether
// events remain queued (netsim.Sharded).
func (n *Network) Run(deadline sim.Time) bool {
	more := n.se.RunUntil(deadline)
	n.SyncStats()
	return more
}

// Events returns the total number of dispatched events (netsim.Sharded).
func (n *Network) Events() uint64 { return n.se.Executed() }

// Epochs returns the number of barrier rounds executed so far (0 when
// serial).
func (n *Network) Epochs() uint64 { return n.se.Epochs }

// NumShards returns the shard count K (netsim.Sharded).
func (n *Network) NumShards() int { return n.se.NumShards() }

// NodeShard returns the shard owning a node's NIC (netsim.Sharded).
func (n *Network) NodeShard(node int) int { return n.nics[node].sh.sh.ID }

// ScheduleNode schedules ev on node's shard with the node's deterministic
// tie-break key (netsim.Sharded). Call it before the run starts or from an
// event already executing on that node's shard.
func (n *Network) ScheduleNode(node int, t sim.Time, ev sim.Event) {
	c := &n.nics[node]
	c.eng.ScheduleKey(t, c.act.Next(), ev)
}

// Counters returns the packet ledger folded into n.Stats by the last Run
// (netsim.Network).
func (n *Network) Counters() netsim.Counters { return n.Stats.Counters }

// SyncStats folds per-shard and per-NIC statistics into n.Stats. It is
// idempotent and invoked by Run; tests that drive the engine directly call
// it before reading order-sensitive aggregates (AckLatency). All merges run
// in fixed shard/node order, so the result is invariant to the shard count.
func (n *Network) SyncStats() {
	if len(n.shards) > 1 {
		agg := Stats{DropsByStage: n.Stats.DropsByStage}
		for i := range agg.DropsByStage {
			agg.DropsByStage[i] = 0
		}
		for _, sh := range n.shards {
			s := sh.stats
			agg.Counters.Add(s.Counters)
			for j, v := range s.DropsByStage {
				agg.DropsByStage[j] += v
			}
			if s.MaxRetxBufBytes > agg.MaxRetxBufBytes {
				agg.MaxRetxBufBytes = s.MaxRetxBufBytes
			}
		}
		n.Stats = agg
	}
	// The ACK round-trip moments are accumulated per NIC and merged in node
	// order: each NIC's sequence of observations is invariant to sharding,
	// and so therefore is this merge.
	var ack stats.Running
	for i := range n.nics {
		ack.Merge(&n.nics[i].ackLat)
	}
	n.Stats.AckLatency = ack
}

package core

import (
	"baldur/internal/netsim"
	"baldur/internal/telemetry"
)

// coreProbe is one shard's resolved telemetry handles. A nil probe (the
// default) disables recording; every hot-path hook is guarded by that single
// nil check, so an uninstrumented run pays one predictable branch per site
// and allocates nothing. The packet-ledger counters have no handles here:
// telemetry reads them from the shard's stored ledger at each sample.
type coreProbe struct {
	hops   telemetry.Count
	blocks telemetry.Count
	ring   *telemetry.Ring
	// traceEvery is the resolved 1-in-N lifecycle-trace sampling rate
	// (0: span capture off). Nonzero only when ring is non-nil.
	traceEvery int
}

// AttachTelemetry registers Baldur's metrics and resolves per-shard probes
// (netsim.Instrumented). The ledger counters are read from each shard's
// stored ledger at every sample (netsim.SampleLedger), so the sampled series
// sums to the end-of-run aggregates; hops and blocks are counted at their
// sites; gauges are refreshed from live NIC/fabric state at each sample
// barrier. Call before the run starts, at most once.
func (n *Network) AttachTelemetry(tel *telemetry.Telemetry) {
	reg := tel.Reg
	ledgers := make([]*netsim.Counters, len(n.shards))
	for i, sh := range n.shards {
		ledgers[i] = &sh.stats.Counters
	}
	netsim.SampleLedger(tel, ledgers, "injected", "delivered", "duplicates",
		"data_attempts", "data_drops", "ack_attempts", "ack_drops", "retransmissions")
	hops := reg.Counter("hops")
	blocks := reg.Counter("blocks")
	for i, sh := range n.shards {
		sh.tp = &coreProbe{
			hops:       reg.Count(hops, i),
			blocks:     reg.Count(blocks, i),
			ring:       tel.Ring(i),
			traceEvery: tel.TraceEvery(),
		}
	}
	// Gauge refresh runs at sample barriers only — shard goroutines are
	// parked, so walking every NIC and the fabric's wire table is safe.
	// Values land in shard 0's slots (gauges are instants, not sums).
	nicQueued := reg.Count(reg.Gauge("nic_queued"), 0)
	inFlight := reg.Count(reg.Gauge("in_flight"), 0)
	retxBytes := reg.Count(reg.Gauge("retx_bytes"), 0)
	wiresBusy := reg.Count(reg.Gauge("wires_busy"), 0)
	wiresTotal := reg.Count(reg.Gauge("wires_total"), 0)
	tel.OnProbe(func() {
		var queued, flight, retx uint64
		for i := range n.nics {
			c := &n.nics[i]
			queued += uint64(c.queueLen())
			flight += uint64(c.outstanding.Len())
			retx += uint64(c.retxBytes)
		}
		nicQueued.Set(queued)
		inFlight.Set(flight)
		retxBytes.Set(retx)
		now := n.fabEng.Now()
		var busy uint64
		for _, until := range n.busy {
			if until > now {
				busy++
			}
		}
		wiresBusy.Set(busy)
		wiresTotal.Set(uint64(len(n.busy)))
	})
}

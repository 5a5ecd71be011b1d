package elecnet

import (
	"baldur/internal/netsim"
	"baldur/internal/telemetry"
)

// elecProbe is one shard's resolved telemetry handles for the buffered
// router engine. A nil probe (the default) disables recording; every hook
// is guarded by that single nil check. The ledger counters have no handles
// here: telemetry reads them from the shard's stored ledger at each sample.
type elecProbe struct {
	hops   telemetry.Count
	blocks telemetry.Count
	ring   *telemetry.Ring
	// traceEvery is the resolved 1-in-N lifecycle-trace sampling rate
	// (0: span capture off). Nonzero only when ring is non-nil.
	traceEvery int
}

// AttachTelemetry registers the electrical networks' metrics and resolves
// per-shard probes (netsim.Instrumented). It instruments the shared router
// engine, so the multi-butterfly, dragonfly and fat-tree all report the
// same schema; the injected/delivered/dropped counters are read from each
// shard's stored ledger at every sample (netsim.SampleLedger). Call before
// the run starts, at most once.
func (n *engine) AttachTelemetry(tel *telemetry.Telemetry) {
	reg := tel.Reg
	ledgers := make([]*netsim.Counters, len(n.shards))
	for i, sh := range n.shards {
		ledgers[i] = sh.stats
	}
	netsim.SampleLedger(tel, ledgers, "injected", "delivered", "dropped")
	hops := reg.Counter("hops")
	blocks := reg.Counter("blocks")
	for i, sh := range n.shards {
		sh.tp = &elecProbe{
			hops:       reg.Count(hops, i),
			blocks:     reg.Count(blocks, i),
			ring:       tel.Ring(i),
			traceEvery: tel.TraceEvery(),
		}
	}
	// Gauge refresh runs at sample barriers only — shard goroutines are
	// parked, so walking every NIC and router is safe. Values land in shard
	// 0's slots (gauges are instants, not sums).
	gSrc := reg.Count(reg.Gauge("src_queued"), 0)
	gNet := reg.Count(reg.Gauge("net_queued"), 0)
	gFlight := reg.Count(reg.Gauge("in_flight"), 0)
	gBusy := reg.Count(reg.Gauge("ports_busy"), 0)
	gTotal := reg.Count(reg.Gauge("ports_total"), 0)
	tel.OnProbe(func() {
		var src, queued uint64
		for ni := range n.nics {
			src += uint64(n.nics[ni].queue.len())
		}
		now := n.Engine().Now()
		var busy, total uint64
		for ri := range n.routers {
			r := &n.routers[ri]
			for pi := range r.out {
				port := &r.out[pi]
				queued += uint64(port.queued)
				total++
				if port.busyUntil > now {
					busy++
				}
			}
		}
		gSrc.Set(src)
		gNet.Set(queued)
		// In flight = injected but neither delivered nor faulted away.
		var c netsim.Counters
		for _, l := range ledgers {
			c.Add(*l)
		}
		gFlight.Set(c.Injected - c.Delivered - c.Dropped)
		gBusy.Set(busy)
		gTotal.Set(total)
	})
}

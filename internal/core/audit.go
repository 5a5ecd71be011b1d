package core

import (
	"baldur/internal/check"
	"baldur/internal/netsim"
	"baldur/internal/sim"
)

// coreAudit is one shard's audit-only counters. A nil pointer (the default)
// disables auditing; every hot-path hook is guarded by that single nil
// check, exactly like the telemetry probe, so an unaudited run pays one
// predictable branch per site and allocates nothing. The struct is padded so
// neighbouring shards' counters never share a cache line.
type coreAudit struct {
	// ev/ack census the pooled event and ACK-packet lifecycles. Pooled
	// objects migrate between shards (acquired on the scheduling shard,
	// freed on the executing one), so only the cross-shard sums balance.
	ev  check.Pool
	ack check.Pool
	// overtaken counts queued (re)transmissions discarded because their
	// ACK arrived first: they consume a queue entry without a wire
	// attempt, so the attempt ledger must credit them.
	overtaken uint64
	// unmatchedAcks counts ACKs arriving after the sender already cleared
	// the sequence (the redundant ACK of a duplicate delivery).
	unmatchedAcks uint64
	_             [16]byte
}

// AttachAudit arms the conservation auditor (netsim.Audited). Call before
// the run starts, at most once per network instance: the overtaken/unmatched
// tallies only cover events after arming, and the ledgers assume complete
// coverage.
//
// The checkpoint walk asserts, at every barrier (shard goroutines parked):
//
//   - core/retx-bytes — per NIC, retxBytes equals the byte sum of its
//     outstanding (unACKed) packets: the requeue/forget paths neither
//     double-count nor leak retransmission-buffer accounting.
//   - core/conservation — with the reliability protocol on, every injected
//     packet is exactly one of ACK-completed or outstanding:
//     injected == completed + outstanding. This is the paper's ledger
//     "injected = delivered + dropped + outstanding + in-flight" folded
//     through the protocol: drops and in-flight copies are retransmission
//     attempts of packets still held in the outstanding set.
//   - core/dedup — unique deliveries equal the receive-side tracker state
//     (sum of next + spilled extras), completed <= delivered <= injected.
//   - core/attempts — the wire ledgers. Mid-run as inequalities (copies can
//     be in flight), at drain exactly:
//     data attempts == drops + delivered + duplicates,
//     injected + retransmissions == attempts + ACK-overtaken discards,
//     ack attempts == ack drops + matched + unmatched.
//   - core/pools — pooled events and ACK packets balance: live counts are
//     non-negative summed across shards, bounded by the engines' queued
//     events, and exactly zero once the run drains.
//
// Violations carry the full ledger diff, the simulated time and the shard.
func (n *Network) AttachAudit(a *check.Auditor) {
	for _, sh := range n.shards {
		sh.aud = &coreAudit{}
	}
	a.OnCheckpoint(func(at sim.Time, drained bool) { n.audit(a, at, drained) })
}

func (n *Network) audit(a *check.Auditor, at sim.Time, drained bool) {
	n.SyncStats()
	st := &n.Stats
	inj := st.Injected + a.SkewInjected
	retxOn := !n.cfg.DisableRetransmit

	// Walk live NIC state. Checkpoints run at barriers only, so reading
	// every shard's NICs from here is safe.
	var outstanding, queued, completed, tracked uint64
	maxRetxNow := 0
	for i := range n.nics {
		c := &n.nics[i]
		outstanding += uint64(c.outstanding.Len())
		queued += uint64(c.queueLen())
		completed += uint64(c.ackLat.N())
		want := 0
		c.outstanding.foreach(func(_ uint64, p *netsim.Packet) {
			want += p.Size
		})
		if c.retxBytes != want {
			a.Violatef(at, c.sh.sh.ID, "core/retx-bytes",
				"nic %d: retxBytes=%d but outstanding sums to %d bytes over %d packets",
				c.id, c.retxBytes, want, c.outstanding.Len())
		}
		if c.retxBytes > maxRetxNow {
			maxRetxNow = c.retxBytes
		}
		c.seen.foreach(func(_ int, tr *seqTracker) {
			tracked += tr.next + uint64(len(tr.extras))
		})
	}
	if maxRetxNow > st.MaxRetxBufBytes {
		a.Violatef(at, -1, "core/retx-bytes",
			"live retx buffer %d B above recorded high-water mark %d B", maxRetxNow, st.MaxRetxBufBytes)
	}

	var overtaken, unmatched uint64
	var evLive, ackLive int64
	for _, sh := range n.shards {
		overtaken += sh.aud.overtaken
		unmatched += sh.aud.unmatchedAcks
		evLive += sh.aud.ev.Live()
		ackLive += sh.aud.ack.Live()
	}

	if retxOn {
		if inj != completed+outstanding+st.GaveUp {
			a.Violatef(at, -1, "core/conservation",
				"injected=%d != completed=%d + outstanding=%d + gaveUp=%d (delivered=%d queued=%d drops=%d retx=%d)",
				inj, completed, outstanding, st.GaveUp, st.Delivered, queued, st.DataDrops, st.Retransmissions)
		}
		if st.Delivered != tracked {
			a.Violatef(at, -1, "core/dedup",
				"delivered=%d but receive trackers account for %d unique sequences", st.Delivered, tracked)
		}
		if completed > st.Delivered {
			a.Violatef(at, -1, "core/dedup",
				"completed=%d > delivered=%d (an ACK matched an undelivered packet)", completed, st.Delivered)
		}
	} else {
		if st.Duplicates != 0 {
			a.Violatef(at, -1, "core/dedup",
				"duplicates=%d with the reliability protocol disabled", st.Duplicates)
		}
		if st.Retransmissions != 0 || outstanding != 0 {
			a.Violatef(at, -1, "core/conservation",
				"retransmissions=%d outstanding=%d with the reliability protocol disabled",
				st.Retransmissions, outstanding)
		}
	}
	if st.Delivered > inj {
		a.Violatef(at, -1, "core/conservation",
			"delivered=%d > injected=%d", st.Delivered, inj)
	}

	// Wire ledgers: inequalities while copies are in flight or queued,
	// exact once the run drains.
	if got, bound := st.DataDrops+st.Delivered+st.Duplicates, st.DataAttempts; got > bound {
		a.Violatef(at, -1, "core/attempts",
			"drops+delivered+duplicates=%d exceeds data attempts=%d", got, bound)
	}
	if got, bound := st.DataAttempts+overtaken, inj+st.Retransmissions; got > bound {
		a.Violatef(at, -1, "core/attempts",
			"attempts+overtaken=%d exceeds injected+retransmissions=%d", got, bound)
	}
	if got, bound := st.AckDrops+completed+unmatched, st.AckAttempts; got > bound {
		a.Violatef(at, -1, "core/attempts",
			"ack drops+matched+unmatched=%d exceeds ack attempts=%d", got, bound)
	}

	census := n.se.Census()
	if evLive < 0 || ackLive < 0 {
		a.Violatef(at, -1, "core/pools",
			"negative live pool balance: events=%d acks=%d (double free)", evLive, ackLive)
	}
	if evLive > int64(census.Pending) {
		a.Violatef(at, -1, "core/pools",
			"%d live pooled events but only %d events queued (leak)", evLive, census.Pending)
	}

	if drained {
		if queued != 0 || outstanding != 0 {
			a.Violatef(at, -1, "core/conservation",
				"drained with queued=%d outstanding=%d", queued, outstanding)
		}
		if retxOn {
			if completed+st.GaveUp != inj {
				a.Violatef(at, -1, "core/conservation",
					"drained with injected=%d != completed=%d + gaveUp=%d", inj, completed, st.GaveUp)
			}
			// Every abandoned packet forfeits its delivery guarantee; with
			// none abandoned the protocol still delivers everything.
			if st.GaveUp == 0 && st.Delivered != inj {
				a.Violatef(at, -1, "core/conservation",
					"drained with injected=%d completed=%d delivered=%d", inj, completed, st.Delivered)
			}
			if got, want := st.DataAttempts+overtaken, inj+st.Retransmissions; got != want {
				a.Violatef(at, -1, "core/attempts",
					"drained: attempts=%d + overtaken=%d != injected=%d + retransmissions=%d",
					st.DataAttempts, overtaken, inj, st.Retransmissions)
			}
			if got, want := st.AckDrops+completed+unmatched, st.AckAttempts; got != want {
				a.Violatef(at, -1, "core/attempts",
					"drained: ack drops=%d + matched=%d + unmatched=%d != ack attempts=%d",
					st.AckDrops, completed, unmatched, st.AckAttempts)
			}
		} else if got, want := st.Delivered+st.DataDrops, st.DataAttempts; got != want || st.DataAttempts != inj {
			a.Violatef(at, -1, "core/attempts",
				"drained: delivered=%d + drops=%d vs attempts=%d vs injected=%d",
				st.Delivered, st.DataDrops, st.DataAttempts, inj)
		}
		if got, want := st.DataDrops+st.Delivered+st.Duplicates, st.DataAttempts; got != want {
			a.Violatef(at, -1, "core/attempts",
				"drained: drops+delivered+duplicates=%d != data attempts=%d", got, want)
		}
		if evLive != 0 || ackLive != 0 {
			a.Violatef(at, -1, "core/pools",
				"drained with live pool balance events=%d acks=%d", evLive, ackLive)
		}
		if census.Pending != 0 {
			a.Violatef(at, -1, "core/pools",
				"drained flag set but %d events still queued", census.Pending)
		}
	}
}

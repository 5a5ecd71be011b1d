package core

import (
	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/stats"
	"baldur/internal/telemetry"
)

// nic models a server node's network interface: a transmit queue feeding
// the single 25 Gbps injection wire, the retransmission buffer holding
// unACKed packets, the local retransmission timer, binary exponential
// backoff, and receive-side deduplication plus ACK generation (Sec IV-E).
//
// NICs live in one contiguous slab (Network.nics []nic) indexed by node id:
// at datacenter scale the per-node header cost is what bounds the resident
// set, so the struct embeds its RNG by value and keeps the reliability and
// dedup state in compact open-addressed tables instead of Go maps. An idle
// NIC allocates nothing beyond its slab slot.
type nic struct {
	net *Network
	id  int

	// Shard residency: sh owns this NIC's events, eng is sh's queue, act
	// is the NIC's deterministic tie-break key stream and rng its private
	// randomness (route tags, backoff draws) — all independent of how NICs
	// are packed onto shards.
	sh  *coreShard
	eng *sim.Engine
	act sim.Actor
	rng sim.RNG

	// ackLat accumulates this NIC's ACK round-trip observations; merged in
	// node order by SyncStats.
	ackLat stats.Running

	// Transmit side. ACKs are prepended (control priority); data appends.
	// The queue is a two-ended structure so neither end allocates in
	// steady state: qfront is a LIFO stack of prepended packets (its last
	// element is the head of the queue) and qback a FIFO slice consumed
	// via qhead, with the backing array reused once drained.
	qfront     []*netsim.Packet
	qback      []*netsim.Packet
	qhead      int
	sending    bool
	wireFreeAt sim.Time
	nextSeq    uint64

	// Reliability state: unACKed data packets by sequence.
	outstanding pktTable
	retxBytes   int

	// Receive side dedup, per source.
	seen srcTable
}

// init wires a slab slot up as node id's NIC.
func (c *nic) init(n *Network, id int, sh *coreShard, rng *sim.RNG) {
	c.net = n
	c.id = id
	c.sh = sh
	c.eng = sh.sh.Eng
	c.act = sim.MakeActor(uint32(id) + 2) // 1 is the fabric
	c.rng = *rng
}

func (c *nic) queueLen() int { return len(c.qfront) + len(c.qback) - c.qhead }

func (c *nic) peekFront() *netsim.Packet {
	if n := len(c.qfront); n > 0 {
		return c.qfront[n-1]
	}
	return c.qback[c.qhead]
}

func (c *nic) popFront() {
	if n := len(c.qfront); n > 0 {
		c.qfront[n-1] = nil
		c.qfront = c.qfront[:n-1]
		return
	}
	c.qback[c.qhead] = nil
	c.qhead++
	if c.qhead == len(c.qback) {
		c.qback = c.qback[:0]
		c.qhead = 0
	}
}

func (c *nic) enqueueData(p *netsim.Packet) {
	c.qback = append(c.qback, p)
	if !c.net.cfg.DisableRetransmit {
		c.outstanding.put(p.Seq, p)
		c.retxBytes += p.Size
		if c.retxBytes > c.sh.stats.MaxRetxBufBytes {
			c.sh.stats.MaxRetxBufBytes = c.retxBytes
		}
	}
	c.pump()
}

func (c *nic) enqueueAckFront(p *netsim.Packet) {
	c.qfront = append(c.qfront, p)
	c.pump()
}

// requeueFront schedules a retransmission at the head of the queue.
func (c *nic) requeueFront(p *netsim.Packet) {
	c.qfront = append(c.qfront, p)
	c.pump()
}

// forget removes a packet from the reliability state (ACK received, or the
// protocol is disabled and the packet was dropped).
func (c *nic) forget(p *netsim.Packet) {
	if c.outstanding.del(p.Seq) {
		c.retxBytes -= p.Size
	}
}

// pump starts transmitting the head-of-queue packet if the wire is free.
func (c *nic) pump() {
	if c.sending || c.queueLen() == 0 {
		return
	}
	p := c.peekFront()
	if p.Acked {
		// The ACK overtook the retransmission: discard silently.
		if aud := c.sh.aud; aud != nil {
			aud.overtaken++
		}
		c.popFront()
		c.pump()
		return
	}
	now := c.eng.Now()
	start := now
	if c.wireFreeAt > start {
		start = c.wireFreeAt
	}
	wireWait := start
	if p.NotBefore > start {
		start = p.NotBefore // backoff window (head-of-line by design:
		// BEB throttles the whole transmitter, Sec IV-E)
		if tp := c.sh.tp; tp != nil {
			tp.blocks.Inc()
			if tp.ring != nil {
				tp.ring.Add(telemetry.Record{
					At: now, Dur: start.Sub(now), Pkt: p.ID,
					Kind: telemetry.KindBlock,
					Src:  int32(p.Src), Dst: int32(p.Dst), Loc: -1,
				})
			}
		}
	}
	if p.Traced {
		// Attribute the wait since the last cursor advance: time behind
		// earlier queued packets (queue), residual occupancy of the
		// injection wire at pop time (wire_busy), then the BEB window
		// (backoff). The spans tile [TraceCursor, start) exactly, and the
		// attempt's transmission starts at start.
		if tp := c.sh.tp; tp != nil && tp.ring != nil {
			src, dst, att := int32(p.Src), int32(p.Dst), int32(p.Retries)
			tp.ring.AddSpan(telemetry.PhaseQueue, p.TraceCursor, now, p.ID, src, dst, -1, att)
			tp.ring.AddSpan(telemetry.PhaseWireBusy, now, wireWait, p.ID, src, dst, -1, att)
			tp.ring.AddSpan(telemetry.PhaseBackoff, wireWait, start, p.ID, src, dst, -1, att)
		}
		p.TraceCursor = start
	}
	c.popFront()
	c.sending = true
	if start == now {
		c.transmit(p)
		return
	}
	c.sched(start, evTransmit, p, 0, 0)
}

// transmit puts p on the injection wire at the current time.
func (c *nic) transmit(p *netsim.Packet) {
	n := c.net
	now := c.eng.Now()
	if p.Acked {
		if aud := c.sh.aud; aud != nil {
			aud.overtaken++
		}
		c.sending = false
		c.pump()
		return
	}
	dur := n.duration
	if p.Ack {
		dur = n.ackDur
	}
	if n.mb.DistStages > 0 {
		// Fresh Valiant bits per attempt: a retransmission takes a new
		// random path through the distribution stages.
		p.RouteTag = c.rng.Uint64()
	}
	c.wireFreeAt = now.Add(dur + n.gap)
	// The head reaches the first-stage switch after the host fiber (one
	// lookahead away: this is the cross-shard handoff).
	c.postTraverse(now.Add(n.cfg.LinkDelay), p)
	// Local retransmission timer for data packets.
	if !p.Ack && !n.cfg.DisableRetransmit {
		c.sched(now.Add(n.rto), evTimeout, nil, p.Seq, p.Retries)
	}
	// Wire becomes free: send the next queued packet.
	c.eng.ScheduleKey(c.wireFreeAt, c.act.Next(), c)
}

// timeout fires RTO after a transmission attempt; if the packet is still
// unACKed and no newer attempt superseded this timer, retransmit with
// binary exponential backoff.
func (c *nic) timeout(seq uint64, attempt int) {
	p := c.outstanding.get(seq)
	if p == nil || p.Retries != attempt {
		return // ACKed, or a newer attempt owns the timer
	}
	n := c.net
	if limit := n.cfg.MaxAttempts; limit > 0 && p.Retries+1 >= limit {
		// Attempt cap: p.Retries+1 attempts are already on the wire or
		// lost. Abandon the packet so a run facing a dead switch or a
		// severed link drains instead of retransmitting forever. A late
		// ACK for it lands in the auditor's unmatched tally.
		c.forget(p)
		c.sh.stats.GaveUp++
		return
	}
	p.Retries++
	c.sh.stats.Retransmissions++
	if tp := c.sh.tp; tp != nil && tp.ring != nil {
		tp.ring.Add(telemetry.Record{
			At: c.eng.Now(), Pkt: p.ID, Kind: telemetry.KindRetransmit,
			Src: int32(p.Src), Dst: int32(p.Dst), Loc: -1,
			Aux: int32(p.Retries),
		})
		if p.Traced {
			// The attempt was lost: everything since its transmit
			// start was spent waiting for this timer.
			tp.ring.AddSpan(telemetry.PhaseRetxWait, p.TraceCursor, c.eng.Now(),
				p.ID, int32(p.Src), int32(p.Dst), -1, int32(p.Retries))
			p.TraceCursor = c.eng.Now()
		}
	}
	if !n.cfg.DisableBEB {
		exp := p.Retries
		if exp > n.cfg.MaxBackoffExp {
			exp = n.cfg.MaxBackoffExp
		}
		window := 1 << exp
		slots := c.rng.Intn(window)
		p.NotBefore = c.eng.Now().Add(sim.Duration(slots) * n.cfg.BEBSlot)
	}
	c.requeueFront(p)
}

// receive handles a packet arriving at this node.
func (c *nic) receive(p *netsim.Packet, at sim.Time) {
	n := c.net
	if p.Ack {
		// We are the original sender: the ACK closes the loop (the ACK's
		// Dst is the data packet's source, i.e. this NIC).
		if data := c.outstanding.get(p.AckFor); data != nil {
			data.Acked = true
			c.forget(data)
			if tp := c.sh.tp; tp != nil && tp.ring != nil {
				tp.ring.Add(telemetry.Record{
					At: at, Pkt: data.ID, Kind: telemetry.KindAck,
					Src: int32(data.Src), Dst: int32(data.Dst), Loc: -1,
				})
				if data.Traced {
					// Post-delivery phase: the receiver stamped the
					// ACK's Created with the data arrival time, so
					// [Created, at) is the ACK's return trip. Excluded
					// from the latency-sum invariant by construction.
					tp.ring.AddSpan(telemetry.PhaseAck, p.Created, at,
						data.ID, int32(data.Src), int32(data.Dst), -1, 0)
				}
			}
			lat := float64(at.Sub(data.Created).Nanoseconds())
			c.ackLat.Add(lat)
			// Keep the legacy live aggregate for serial callers that read
			// Stats without SyncStats; overwritten by the node-order merge
			// whenever SyncStats runs.
			c.sh.stats.AckLatency.Add(lat)
		} else if aud := c.sh.aud; aud != nil {
			// Late ACK for a sequence already cleared: the duplicate
			// delivery's redundant ACK.
			aud.unmatchedAcks++
		}
		c.sh.releaseAck(p)
		return
	}
	if n.cfg.DisableRetransmit {
		c.deliverUnique(p, at)
		return
	}
	// Dedup, then always ACK (the original ACK may have been lost).
	fresh := c.seen.insert(p.Src).record(p.Seq)
	if fresh {
		c.deliverUnique(p, at)
	} else {
		c.sh.stats.Duplicates++
	}
	ack := c.sh.acquireAck()
	ack.ID = 0 // ACKs are anonymous
	ack.Src = c.id
	ack.Dst = p.Src
	ack.Size = n.cfg.AckSize
	ack.Created = at
	ack.Ack = true
	ack.AckFor = p.Seq
	c.enqueueAckFront(ack)
}

func (c *nic) deliverUnique(p *netsim.Packet, at sim.Time) {
	n := c.net
	c.sh.stats.Delivered++
	if tp := c.sh.tp; tp != nil && tp.ring != nil {
		tp.ring.Add(telemetry.Record{
			At: at, Pkt: p.ID, Kind: telemetry.KindDeliver,
			Src: int32(p.Src), Dst: int32(p.Dst), Loc: -1,
		})
		if p.Traced {
			c.traceFlight(tp.ring, p, at)
		}
	}
	for _, fn := range n.onDeliver {
		fn(p, at)
	}
}

// traceFlight reconstructs the delivered attempt's flight spans at the
// destination. The fabric is bufferless, so a successful attempt's timing is
// fully determined by constants: it started serializing exactly net.flight
// before delivery, and the head then moved one fiber/stage at a time. This
// runs on the destination shard but reads only immutable packet fields and
// network constants — the source shard still owns the mutable packet state
// (cursor, retry bookkeeping), which is why the attempt is reconstructed
// rather than carried on the packet.
func (c *nic) traceFlight(ring *telemetry.Ring, p *netsim.Packet, at sim.Time) {
	n := c.net
	src, dst := int32(p.Src), int32(p.Dst)
	perStage := n.cfg.SwitchLatency + n.cfg.InterStageDelay
	t := at.Add(-n.flight)
	ring.AddSpan(telemetry.PhaseLink, t, t.Add(n.cfg.LinkDelay), p.ID, src, dst, -1, 0)
	t = t.Add(n.cfg.LinkDelay)
	for s := 0; s < n.mb.Stages; s++ {
		ring.AddSpan(telemetry.PhaseHop, t, t.Add(perStage), p.ID, src, dst, int32(s), 0)
		t = t.Add(perStage)
	}
	ring.AddSpan(telemetry.PhaseLink, t, t.Add(n.cfg.LinkDelay), p.ID, src, dst, -1, 1)
	ring.AddSpan(telemetry.PhaseWire, at.Add(-n.duration), at, p.ID, src, dst, -1, 0)
}

// seqTracker deduplicates per-source sequence numbers with O(1) memory for
// in-order delivery and a small spill set for reordering caused by
// retransmissions.
type seqTracker struct {
	next   uint64 // all seq < next have been seen
	extras map[uint64]struct{}
}

// record returns true if seq is new.
func (t *seqTracker) record(seq uint64) bool {
	if seq < t.next {
		return false
	}
	if seq == t.next {
		t.next++
		// Compact any contiguous extras.
		for {
			if _, ok := t.extras[t.next]; !ok {
				break
			}
			delete(t.extras, t.next)
			t.next++
		}
		return true
	}
	if t.extras == nil {
		t.extras = make(map[uint64]struct{})
	}
	if _, dup := t.extras[seq]; dup {
		return false
	}
	t.extras[seq] = struct{}{}
	return true
}

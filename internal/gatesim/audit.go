package gatesim

import (
	"baldur/internal/check"
	"baldur/internal/sim"
	"baldur/internal/telemetry"
)

// gateAudit censuses the pooled transition events. Nil (the default)
// disables auditing at the cost of one nil check per acquire/release.
type gateAudit struct {
	lvl check.Pool
}

// AttachAudit arms the pool-leak auditor. Every checkpoint asserts the live
// transition-event balance is non-negative and bounded by the engine's
// queued events, and that it reaches exactly zero when the circuit settles:
// a drift in either direction means a leaked or double-freed levelEvent.
// Call before the run starts, at most once per circuit.
func (c *Circuit) AttachAudit(a *check.Auditor) {
	c.aud = &gateAudit{}
	a.OnCheckpoint(func(at sim.Time, drained bool) {
		live := c.aud.lvl.Live()
		pending := c.eng.Pending()
		if live < 0 {
			a.Violatef(at, 0, "gate/pools",
				"negative live transition-event balance %d (double free)", live)
		}
		if live > int64(pending) {
			a.Violatef(at, 0, "gate/pools",
				"%d live transition events but only %d events queued (leak)", live, pending)
		}
		if drained && live != 0 {
			a.Violatef(at, 0, "gate/pools",
				"settled with live transition-event balance %d", live)
		}
	})
}

// RunSliced drives the circuit to the deadline in slices, taking a
// telemetry sample and an audit checkpoint (either layer may be nil) at
// every boundary up to and including the deadline. The slice width is the
// telemetry interval when tel is set, else the audit interval. With neither
// layer it is exactly Run.
func (c *Circuit) RunSliced(until Fs, tel *telemetry.Telemetry, aud *check.Auditor) {
	if tel == nil && aud == nil {
		c.Run(until)
		return
	}
	var iv sim.Duration
	if tel != nil {
		iv = tel.Interval()
	} else {
		iv = aud.Interval()
	}
	end := sim.Time(until)
	for t := c.eng.Now(); t < end; {
		t = min(t.Add(iv), end)
		more := c.eng.RunUntil(t)
		if tel != nil {
			tel.Sample(t, c.eng.Executed, 0)
		}
		if aud != nil {
			aud.Checkpoint(t, !more)
		}
	}
}

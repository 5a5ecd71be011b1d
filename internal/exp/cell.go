package exp

import (
	"fmt"

	"baldur/internal/check"
	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/telemetry"
	"baldur/internal/traffic"
)

// cellSpec is what varies between the packet-level cells runCell drives.
type cellSpec struct {
	// tel and aud request the telemetry and invariant-audit layers (nil:
	// off).
	tel *telemetry.Options
	aud *check.Options
	// label is the telemetry label when tel leaves it empty.
	label string
	// network and what name the cell in audit errors ("network/what").
	network, what string
	warmup        sim.Duration
	deadline      sim.Time
	// drive holds the boundary hooks beyond the observers (slice width,
	// fault script, Observe); runCell sets its Tel and Aud.
	drive netsim.DriveOptions
	// keepViolations leaves audit violations on the returned auditor
	// instead of failing the cell: campaign cells report them per row.
	keepViolations bool
}

// cell returns the spec of a Scale-driven cell: the scale's observers,
// warmup and safety horizon.
func (sc Scale) cell(network, what, label string) cellSpec {
	return cellSpec{
		tel: sc.Telemetry, aud: sc.Audit, label: label,
		network: network, what: what,
		warmup: sc.Warmup, deadline: sc.maxSim(),
	}
}

// onSpanAudit, when non-nil, receives every armed span audit after
// verification. Tests set it to prove the audit ran and witnessed traffic.
var onSpanAudit func(*check.SpanAudit)

// cellRun is a finished cell's collector, observers (nil when off) and
// whether events remained queued at the deadline.
type cellRun struct {
	col  *netsim.Collector
	tel  *telemetry.Telemetry
	aud  *check.Auditor
	more bool
}

// runCell is the one way a packet-level cell runs. It attaches, in this
// fixed order, telemetry, the collector (col, or a fresh one when nil), the
// traffic source start, the auditor, and — when both auditing and trace
// sampling are on — the span audit; then it drives net to the deadline,
// verifies the traced spans and fails the cell on audit violations.
// Telemetry and auditing attach only to networks that implement them (the
// analytic ideal network implements neither).
//
// The order is fixed because it is part of a run's identity: delivery
// callbacks fire in registration order and traffic sources schedule their
// first events when started, so a different order could reorder same-time
// work. One order for every cell kind keeps each kind's goldens pinned to
// the same wiring, and the span audit — armed last — can only exist when
// both layers it reconciles do.
func runCell(net netsim.Network, col *netsim.Collector, start func(netsim.Network) error, c cellSpec) (cellRun, error) {
	r := cellRun{col: col}
	if r.col == nil {
		r.col = new(netsim.Collector)
	}
	if in, ok := net.(netsim.Instrumented); ok && c.tel != nil {
		opts := *c.tel
		if opts.Label == "" {
			opts.Label = c.label
		}
		r.tel = telemetry.New(opts, netsim.NumShards(net))
		in.AttachTelemetry(r.tel)
	}
	r.col.Warmup = sim.Time(c.warmup)
	r.col.Attach(net)
	if err := start(net); err != nil {
		return r, err
	}
	if au, ok := net.(netsim.Audited); ok && c.aud != nil {
		r.aud = check.New(*c.aud)
		au.AttachAudit(r.aud)
	}
	var spans *check.SpanAudit
	if r.aud != nil && r.tel != nil && r.tel.TraceEvery() > 0 {
		spans = netsim.AttachSpanAudit(net)
	}
	opts := c.drive
	opts.Tel, opts.Aud = r.tel, r.aud
	var err error
	if r.more, err = netsim.Drive(net, c.deadline, opts); err != nil {
		return r, err
	}
	if spans != nil {
		spans.VerifyInto(r.aud, r.tel.Rec.Records(), r.tel.Rec.Overwritten() > 0)
		if onSpanAudit != nil {
			onSpanAudit(spans)
		}
	}
	if r.aud != nil && !c.keepViolations {
		if err := r.aud.Err(); err != nil {
			return r, fmt.Errorf("exp: %s/%s: %w", c.network, c.what, err)
		}
	}
	return r, nil
}

// runOpenLoopNet runs open-loop traffic ol on a freshly built net as the
// Scale-driven cell label, to the scale's safety horizon or, when set, to
// horizon, and exports the cell's telemetry. Table V and the ablations,
// which build their own network variants, run through it.
func (sc Scale) runOpenLoopNet(net netsim.Network, network, label string, ol traffic.OpenLoop, horizon sim.Time) (*netsim.Collector, error) {
	c := sc.cell(network, label, label)
	if horizon > 0 {
		c.deadline = horizon
	}
	run, err := runCell(net, nil, func(n netsim.Network) error { ol.Start(n); return nil }, c)
	if err != nil {
		return nil, err
	}
	return run.col, writeTelemetry(run.tel, sc, label)
}

// writeTelemetry exports a cell's telemetry, tagging output paths when the
// scale runs many cells.
func writeTelemetry(tel *telemetry.Telemetry, sc Scale, cell string) error {
	if tel == nil {
		return nil
	}
	tag := ""
	if sc.TelemetryPerCell {
		tag = cell
	}
	return tel.WriteOutputs(tag)
}

// Package harness runs the differential-fuzz configurations of
// internal/check: one randomized small simulation executed four ways —
// serial vs sharded, audits on vs off — with every run reduced to a
// comparable Fingerprint. Any fingerprint divergence or audit violation is a
// bug in the simulator (or the auditor), never in the workload.
//
// The package sits below cmd/simfuzz and the native fuzz targets; it lives
// outside internal/check itself because it needs the concrete networks,
// which import check.
package harness

import (
	"fmt"

	"baldur/internal/check"
	"baldur/internal/core"
	"baldur/internal/elecnet"
	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/traffic"
)

// Horizon bounds one fuzz run's virtual time. Configs are tiny (Canon keeps
// them under ~100 nodes and a dozen packets per node), so a clean run drains
// long before this; a run that does not (e.g. a fault with the reliability
// protocol retransmitting forever) is cut here and audited with its mid-run
// invariants only.
const Horizon = 500 * sim.Microsecond

// Fingerprint is the comparable digest of one run: every stat the
// differential asserts is invariant across shard counts and audit
// attachment: the network's packet ledger plus the collector's view of the
// same run. Float fields are exact (the simulator is deterministic), so
// struct equality is the comparison.
type Fingerprint struct {
	netsim.Counters

	CollectorDelivered uint64
	Samples            int64
	AvgNS              float64
	TailNS             float64
	Events             uint64
	Finished           bool
}

// Result is one run's outcome.
type Result struct {
	FP          Fingerprint
	Violations  []check.Violation
	Checkpoints int
}

// Build constructs the configured network with the given shard count and
// returns it plus a reader of its packet ledger. The campaign runner
// (internal/exp) reuses it so scenario cells exercise the exact networks the
// fuzz differential covers.
func Build(cfg check.FuzzConfig, shards int) (netsim.Network, func() Fingerprint, error) {
	net, err := build(cfg, shards)
	if err != nil {
		return nil, nil, err
	}
	return net, func() Fingerprint { return Fingerprint{Counters: net.Counters()} }, nil
}

func build(cfg check.FuzzConfig, shards int) (netsim.Network, error) {
	switch cfg.Net {
	case "baldur":
		n, err := core.New(core.Config{
			Nodes:             1 << cfg.NodesExp,
			Multiplicity:      cfg.Multiplicity,
			RTO:               sim.Duration(cfg.RTONs) * sim.Nanosecond,
			BEBSlot:           sim.Duration(cfg.BEBSlotNs) * sim.Nanosecond,
			MaxBackoffExp:     cfg.MaxBackoffExp,
			DisableBEB:        cfg.DisableBEB,
			DisableRetransmit: cfg.DisableRetransmit,
			MaxAttempts:       cfg.MaxAttempts,
			Seed:              cfg.Seed,
			Shards:            shards,
		})
		if err != nil {
			return nil, err
		}
		if cfg.FaultStage >= 0 {
			if err := n.InjectFault(core.FaultSpec{Stage: cfg.FaultStage, Switch: int32(cfg.FaultSwitch)}); err != nil {
				return nil, err
			}
		}
		return n, nil
	case "multibutterfly":
		return elecnet.NewMultiButterfly(elecnet.MBConfig{
			Nodes:        1 << cfg.NodesExp,
			Multiplicity: cfg.Multiplicity,
			Seed:         cfg.Seed,
			Shards:       shards,
		})
	case "dragonfly":
		return elecnet.NewDragonfly(elecnet.DragonflyConfig{P: 2, Seed: cfg.Seed, Shards: shards})
	case "fattree":
		return elecnet.NewFatTree(elecnet.FatTreeConfig{K: 4, Shards: shards})
	}
	return nil, fmt.Errorf("harness: unknown network %q", cfg.Net)
}

// StartOpenLoop starts cfg's canonical traffic on net: a random permutation
// under open-loop Poisson injection at cfg's load. Fuzz runs, campaign
// cells and the overhead benchmarks all drive this one source.
func StartOpenLoop(cfg check.FuzzConfig, net netsim.Network) {
	ol := traffic.OpenLoop{
		Pattern:        traffic.RandomPermutation(net.NumNodes(), cfg.Seed+10),
		Load:           float64(cfg.LoadPct) / 100,
		PacketsPerNode: cfg.PacketsPerNode,
		Seed:           cfg.Seed + 100,
	}
	ol.Start(net)
}

// Run executes cfg once with the given shard count. With audit set it
// attaches a check.Auditor (whose SkewInjected is set to skew — non-zero
// seeds a deliberate conservation bug, the auditor's self-test) and drives
// the run through checkpointed slices; Violations and Checkpoints report
// what the auditor saw.
func Run(cfg check.FuzzConfig, shards int, audit bool, skew uint64) (Result, error) {
	cfg = cfg.Canon()
	net, read, err := Build(cfg, shards)
	if err != nil {
		return Result{}, err
	}
	var col netsim.Collector
	col.Attach(net)
	StartOpenLoop(cfg, net)
	var aud *check.Auditor
	if audit {
		aud = check.New(check.Options{})
		aud.SkewInjected = skew
		net.(netsim.Audited).AttachAudit(aud)
	}
	more, err := netsim.Drive(net, sim.Time(0).Add(Horizon), netsim.DriveOptions{Aud: aud})
	if err != nil {
		return Result{}, err
	}
	fp := read()
	fp.CollectorDelivered = col.Delivered()
	fp.Samples = col.Samples()
	fp.AvgNS = col.AvgNS()
	fp.TailNS = col.TailNS()
	fp.Events = netsim.Events(net)
	fp.Finished = !more
	res := Result{FP: fp}
	if aud != nil {
		res.Violations = aud.Violations()
		res.Checkpoints = aud.Checkpoints()
	}
	return res, nil
}

// Diff is the differential: cfg executed serial vs sharded and audit-off vs
// audit-on. It returns nil when all four fingerprints are identical and the
// audited runs are violation-free, and a descriptive error otherwise.
func Diff(cfg check.FuzzConfig) error {
	cfg = cfg.Canon()
	base, err := Run(cfg, 1, false, 0)
	if err != nil {
		return fmt.Errorf("harness: serial run: %w", err)
	}
	for _, alt := range [...]struct {
		name   string
		shards int
		audit  bool
	}{
		{"sharded", cfg.Shards, false},
		{"serial+audit", 1, true},
		{"sharded+audit", cfg.Shards, true},
	} {
		r, err := Run(cfg, alt.shards, alt.audit, 0)
		if err != nil {
			return fmt.Errorf("harness: %s run: %w", alt.name, err)
		}
		if r.FP != base.FP {
			return fmt.Errorf("harness: %s run diverged from serial baseline:\n  serial: %+v\n  %s: %+v",
				alt.name, base.FP, alt.name, r.FP)
		}
		if alt.audit {
			if len(r.Violations) > 0 {
				return fmt.Errorf("harness: %s run: %d audit violation(s); first: %s",
					alt.name, len(r.Violations), r.Violations[0].String())
			}
			if r.Checkpoints == 0 {
				return fmt.Errorf("harness: %s run executed no audit checkpoints", alt.name)
			}
		}
	}
	return nil
}

// FailsWithSkew reports whether the auditor catches a deliberately seeded
// conservation bug (the injected count skewed by one) on cfg — the
// self-test cmd/simfuzz -inject-bug shrinks against.
func FailsWithSkew(cfg check.FuzzConfig) bool {
	r, err := Run(cfg, 1, true, 1)
	return err == nil && len(r.Violations) > 0
}

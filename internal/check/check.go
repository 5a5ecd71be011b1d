// Package check is the invariant-audit layer of the simulator: conservation
// ledgers evaluated at run barriers, object-pool leak census, and the shared
// configuration/shrinking machinery behind the differential fuzz harness
// (internal/check/harness, cmd/simfuzz).
//
// The layer is strictly opt-in and mirrors internal/telemetry's design:
// networks hold a nil audit pointer when no auditor is attached, so the only
// cost on the simulation hot path is one nil check per instrumented site —
// no allocations, no atomic traffic. When attached, the per-shard audit
// counters are plain padded integers updated only by their owning shard's
// goroutine; the ledger walks themselves run exclusively at checkpoint
// barriers (epoch barriers in sharded mode, sampled intervals serially),
// where every shard goroutine is parked, so they may read any model state.
//
// What the ledgers assert is documented on each network's AttachAudit; the
// common currency is a Violation carrying the rule name, the full ledger
// diff, the simulated time and the shard.
package check

import (
	"fmt"

	"baldur/internal/sim"
)

// DefaultInterval is the checkpoint spacing when Options.Interval is zero
// (matches telemetry.DefaultSampleInterval so audit and sample barriers
// coincide when both layers are attached).
const DefaultInterval = 10 * sim.Microsecond

// Options configures an Auditor. The zero value is valid: checkpoints every
// DefaultInterval, collecting up to DefaultMaxViolations violations.
type Options struct {
	// Interval is the simulated time between audit checkpoints when the
	// auditor drives the slicing itself (no telemetry attached). 0 means
	// DefaultInterval.
	Interval sim.Duration
	// FailFast panics on the first violation instead of collecting it —
	// useful under a debugger, where the model state at the violating
	// barrier is the interesting artifact.
	FailFast bool
	// MaxViolations bounds the collected slice (0 = DefaultMaxViolations);
	// further violations are counted but dropped.
	MaxViolations int
}

// DefaultMaxViolations bounds violation collection when Options leaves it 0.
const DefaultMaxViolations = 64

// Violation is one failed invariant: which rule, where, when, and the full
// ledger diff in Detail.
type Violation struct {
	At     sim.Time
	Shard  int // shard the violating state belongs to; -1 for global ledgers
	Rule   string
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("audit violation [%s] at t=%v shard=%d: %s", v.Rule, v.At, v.Shard, v.Detail)
}

// Auditor collects invariant checks for one run. Construct with New, hand to
// the network's AttachAudit before the run starts, then drive the run with
// netsim.Drive (or call Checkpoint manually at barriers) and inspect
// Err/Violations at the end.
//
// An Auditor is not safe for concurrent use; Checkpoint must only run at
// barriers, which is exactly when nothing else touches it.
type Auditor struct {
	Opts Options

	// SkewInjected is added to the observed injected-packet count inside
	// the conservation ledgers — a deliberately seeded accounting bug.
	// cmd/simfuzz and the harness self-tests use it to prove end to end
	// that a broken ledger is detected, minimized and reported; it must be
	// zero in real runs.
	SkewInjected uint64

	checks      []func(at sim.Time, drained bool)
	violations  []Violation
	dropped     int
	checkpoints int
}

// New returns an Auditor with the given options.
func New(opts Options) *Auditor {
	if opts.MaxViolations <= 0 {
		opts.MaxViolations = DefaultMaxViolations
	}
	return &Auditor{Opts: opts}
}

// Interval returns the checkpoint spacing.
func (a *Auditor) Interval() sim.Duration {
	if a.Opts.Interval > 0 {
		return a.Opts.Interval
	}
	return DefaultInterval
}

// OnCheckpoint registers an invariant walk. Networks call this from
// AttachAudit; fn runs at every checkpoint barrier with the current virtual
// time and whether the run has fully drained (no events queued anywhere).
func (a *Auditor) OnCheckpoint(fn func(at sim.Time, drained bool)) {
	a.checks = append(a.checks, fn)
}

// Checkpoint runs every registered invariant walk. Call only at barriers:
// between epochs of a sharded run or between RunUntil slices of a serial
// one — never while shard goroutines are dispatching.
func (a *Auditor) Checkpoint(at sim.Time, drained bool) {
	a.checkpoints++
	for _, fn := range a.checks {
		fn(at, drained)
	}
}

// Checkpoints returns how many checkpoint barriers have run. Harnesses
// assert it is non-zero so a misconfigured run cannot pass vacuously.
func (a *Auditor) Checkpoints() int { return a.checkpoints }

// Violatef records one violation. shard is the owner of the violating state
// (-1 for network-global ledgers).
func (a *Auditor) Violatef(at sim.Time, shard int, rule, format string, args ...any) {
	v := Violation{At: at, Shard: shard, Rule: rule, Detail: fmt.Sprintf(format, args...)}
	if a.Opts.FailFast {
		panic(v.String())
	}
	if len(a.violations) >= a.Opts.MaxViolations {
		a.dropped++
		return
	}
	a.violations = append(a.violations, v)
}

// Violations returns the collected violations (owned by the auditor).
func (a *Auditor) Violations() []Violation { return a.violations }

// Err returns nil if no invariant failed, else an error summarizing the
// first violation and the total count.
func (a *Auditor) Err() error {
	n := len(a.violations) + a.dropped
	if n == 0 {
		return nil
	}
	return fmt.Errorf("%d audit violation(s) after %d checkpoints; first: %s",
		n, a.checkpoints, a.violations[0])
}

// Pool counts acquires and releases of one object pool for leak detection.
// Each shard embeds its own Pool inside its padded audit block, so the
// increments are single-writer; live counts are only meaningful summed
// across shards at a barrier (pooled objects migrate between shards, so a
// single shard's balance may legitimately go negative).
type Pool struct {
	Acquired uint64
	Released uint64
}

// Get counts one acquisition (pool hit or fresh allocation alike).
func (p *Pool) Get() { p.Acquired++ }

// Put counts one release back to a pool.
func (p *Pool) Put() { p.Released++ }

// Live returns acquired-minus-released as a signed count.
func (p *Pool) Live() int64 { return int64(p.Acquired) - int64(p.Released) }

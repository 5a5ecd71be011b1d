package exp

import (
	"reflect"
	"testing"

	"baldur/internal/check"
	"baldur/internal/telemetry"
)

// TestRunOpenLoopAudited drives every auditable network through the harness
// with the invariant-audit layer armed, serial and sharded: zero violations,
// and the measured Point — and the latency profile of the same cell, Table
// V and the ablation suite — must be identical to an unaudited run
// (auditing verifies, never perturbs).
func TestRunOpenLoopAudited(t *testing.T) {
	sc := Quick
	sc.PacketsPerNode = 20
	baseT5, err := Table5(sc)
	if err != nil {
		t.Fatalf("unaudited Table V: %v", err)
	}
	baseAbl, err := Ablations(sc)
	if err != nil {
		t.Fatalf("unaudited ablations: %v", err)
	}
	for _, shards := range []int{1, 4} {
		asc := sc
		asc.Shards = shards
		asc.Audit = &check.Options{}
		if rows, err := Table5(asc); err != nil {
			t.Errorf("Table V K=%d audited: %v", shards, err)
		} else if !reflect.DeepEqual(rows, baseT5) {
			t.Errorf("Table V K=%d: audited rows %+v != unaudited %+v", shards, rows, baseT5)
		}
		if rows, err := Ablations(asc); err != nil {
			t.Errorf("ablations K=%d audited: %v", shards, err)
		} else if !reflect.DeepEqual(rows, baseAbl) {
			t.Errorf("ablations K=%d: audited rows %+v != unaudited %+v", shards, rows, baseAbl)
		}
	}
	for _, network := range []string{"baldur", "multibutterfly", "dragonfly", "fattree"} {
		base, err := RunOpenLoop(network, "random_permutation", 0.5, sc)
		if err != nil {
			t.Fatalf("%s unaudited: %v", network, err)
		}
		baseProf, err := Profile(network, "random_permutation", 0.5, sc)
		if err != nil {
			t.Fatalf("%s unaudited profile: %v", network, err)
		}
		for _, shards := range []int{1, 4} {
			asc := sc
			asc.Shards = shards
			asc.Audit = &check.Options{}
			p, err := RunOpenLoop(network, "random_permutation", 0.5, asc)
			if err != nil {
				t.Errorf("%s K=%d audited: %v", network, shards, err)
				continue
			}
			if p != base {
				t.Errorf("%s K=%d: audited point %+v != unaudited %+v", network, shards, p, base)
			}
			prof, err := Profile(network, "random_permutation", 0.5, asc)
			if err != nil {
				t.Errorf("%s K=%d audited profile: %v", network, shards, err)
				continue
			}
			if prof != baseProf {
				t.Errorf("%s K=%d: audited profile %+v != unaudited %+v", network, shards, prof, baseProf)
			}
		}
	}
}

// TestRunOpenLoopAuditSkipsIdeal checks the analytic ideal network runs
// cleanly with Audit set: it implements no audit hooks and must simply stay
// unaudited rather than fail.
func TestRunOpenLoopAuditSkipsIdeal(t *testing.T) {
	sc := Quick
	sc.PacketsPerNode = 20
	sc.Audit = &check.Options{}
	if _, err := RunOpenLoop("ideal", "random_permutation", 0.5, sc); err != nil {
		t.Fatalf("ideal with Audit set: %v", err)
	}
}

// TestRunPingPongAudited exercises the closed-loop runner's audit wiring.
func TestRunPingPongAudited(t *testing.T) {
	sc := Quick
	sc.PacketsPerNode = 5
	sc.Audit = &check.Options{}
	p, err := RunPingPong("baldur", "ping_pong1", sc)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Finished {
		t.Error("audited ping-pong run did not finish")
	}
}

// TestSpanAuditArmedOnPingPongAndWorkload checks that traced, audited
// ping-pong and workload cells get the in-run span audit every other
// packet-level cell has: each run finishes clean with traced deliveries
// witnessed.
func TestSpanAuditArmedOnPingPongAndWorkload(t *testing.T) {
	var witnessed []int
	onSpanAudit = func(a *check.SpanAudit) { witnessed = append(witnessed, a.Witnessed()) }
	defer func() { onSpanAudit = nil }()
	tel := func() *telemetry.Options {
		return &telemetry.Options{FlightRecords: 1 << 17, TraceSample: 2}
	}

	sc := Quick
	sc.PacketsPerNode = 5
	sc.Shards = 2
	sc.Audit = &check.Options{}
	sc.Telemetry = tel()
	p, err := RunPingPong("baldur", "ping_pong1", sc)
	if err != nil {
		t.Fatalf("ping-pong: %v", err)
	}
	if !p.Finished {
		t.Error("traced, audited ping-pong run did not finish")
	}

	wsc := testWorkloadScale(2)
	wsc.Audit = &check.Options{}
	wsc.Telemetry = tel()
	rep, err := RunWorkload("baldur", testWorkloadSpec(), wsc)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	if !rep.Finished {
		t.Error("traced, audited workload run did not finish")
	}

	if len(witnessed) != 2 {
		t.Fatalf("span audit armed on %d of 2 cells", len(witnessed))
	}
	for i, n := range witnessed {
		if n == 0 {
			t.Errorf("cell %d: span audit witnessed no traced deliveries", i)
		}
	}
}

// TestSpanAuditArmedOnTraceReplay: a traced, audited trace-replay cell gets
// the auditor and the in-run span audit like every other packet-level cell,
// and runs clean with traced deliveries witnessed.
func TestSpanAuditArmedOnTraceReplay(t *testing.T) {
	var witnessed []int
	onSpanAudit = func(a *check.SpanAudit) { witnessed = append(witnessed, a.Witnessed()) }
	defer func() { onSpanAudit = nil }()
	sc := Quick
	sc.Audit = &check.Options{}
	sc.Telemetry = &telemetry.Options{FlightRecords: 1 << 17, TraceSample: 4}
	p, err := RunTrace("baldur", "FB", sc)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Finished {
		t.Error("traced, audited replay did not finish")
	}
	if len(witnessed) != 1 || witnessed[0] == 0 {
		t.Errorf("span audit witnessed %v, want one armed audit with traced deliveries", witnessed)
	}
}

package main

import (
	"strings"
	"testing"
)

func rep(rs ...result) report {
	return report{GoOS: "linux", GoArch: "amd64", Benchmarks: rs}
}

// gateFor returns the table row gating entry, so the tests below read their
// bounds from the table they exercise.
func gateFor(t *testing.T, entry string) gate {
	t.Helper()
	for _, g := range gates {
		if g.entry == entry {
			return g
		}
	}
	t.Fatalf("no gate for %s", entry)
	return gate{}
}

// extra builds a fresh result carrying one extra metric.
func extra(name, metric string, v float64) result {
	return result{Name: name, NsPerOp: 100, Extra: map[string]float64{metric: v}}
}

// compareCase is one compare run: the verdict it must reach and the
// fragments the check report must contain (or, with silent, no output).
type compareCase struct {
	name        string
	base, fresh report
	pass        bool
	want        []string
	silent      bool
}

func runCompareCases(t *testing.T, cases []compareCase) {
	t.Helper()
	for _, c := range cases {
		var out strings.Builder
		failed := compare(c.base, c.fresh, &out)
		if pass := len(failed) == 0; pass != c.pass {
			t.Errorf("%s: pass = %v, want %v (failed: %s):\n%s", c.name, pass, c.pass, gateList(failed), out.String())
		}
		for _, frag := range c.want {
			if !strings.Contains(out.String(), frag) {
				t.Errorf("%s: report lacks %q:\n%s", c.name, frag, out.String())
			}
		}
		if c.silent && out.Len() != 0 {
			t.Errorf("%s: produced output:\n%s", c.name, out.String())
		}
	}
}

// TestCompareEveryGate drives every row of the gate table just inside and
// just outside its bound: inside passes with an ok verdict, outside fails
// with a REGRESSION verdict and exactly that gate reported as failed. The
// table holds at least one row of each kind, so this pins the semantics of
// relative, ceiling and floor gates alike.
func TestCompareEveryGate(t *testing.T) {
	kinds := map[gateKind]bool{}
	for _, g := range gates {
		kinds[g.kind] = true
		var inside, outside float64
		switch g.kind {
		case relative:
			inside, outside = 100*(1+g.bound/2), 100*(1+g.bound*2)
		case ceiling:
			inside, outside = g.bound/2, g.bound*2
		case floor:
			inside, outside = g.bound*2, g.bound/2
		}
		mk := func(v float64) result {
			if g.metric == "ns_per_op" {
				return result{Name: g.entry, NsPerOp: v}
			}
			return extra(g.entry, g.metric, v)
		}
		base := rep(mk(100))
		var out strings.Builder
		if failed := compare(base, rep(mk(inside)), &out); len(failed) != 0 || !strings.Contains(out.String(), "ok") {
			t.Errorf("%s: inside the bound failed (%s):\n%s", g, gateList(failed), out.String())
		}
		out.Reset()
		failed := compare(base, rep(mk(outside)), &out)
		if len(failed) != 1 || failed[0] != g || !strings.Contains(out.String(), "REGRESSION") {
			t.Errorf("%s: outside the bound reported failed = [%s]:\n%s", g, gateList(failed), out.String())
		}
	}
	for _, k := range []gateKind{relative, ceiling, floor} {
		if !kinds[k] {
			t.Errorf("gate table has no %s row", k)
		}
	}
}

// TestCompareNamesFailedGate pins the -check failure message: it names the
// gate that tripped with its metric, kind and bound.
func TestCompareNamesFailedGate(t *testing.T) {
	var out strings.Builder
	failed := compare(rep(), rep(extra("faults_overhead", "extra_allocs_op", 192)), &out)
	if got, want := gateList(failed), "faults_overhead extra_allocs_op ceiling 8"; got != want {
		t.Errorf("failed gates = %q, want %q", got, want)
	}
	out.Reset()
	typed := result{Name: "engine_schedule_dispatch_typed", NsPerOp: 100}
	slow := result{Name: "engine_schedule_dispatch_typed", NsPerOp: 130}
	failed = compare(rep(typed), rep(slow), &out)
	if got, want := gateList(failed), "engine_schedule_dispatch_typed ns_per_op relative +15%"; got != want {
		t.Errorf("failed gates = %q, want %q", got, want)
	}
}

func TestCompareWithinTolerance(t *testing.T) {
	g := gateFor(t, "engine_schedule_dispatch_typed")
	runCompareCases(t, []compareCase{{
		name:  "10% growth under the relative gate",
		base:  rep(result{Name: g.entry, NsPerOp: 100}),
		fresh: rep(result{Name: g.entry, NsPerOp: 110}),
		pass:  true, want: []string{"ok"},
	}})
}

func TestCompareRegression(t *testing.T) {
	g := gateFor(t, "engine_schedule_dispatch_typed")
	runCompareCases(t, []compareCase{{
		name:  "30% growth over the relative gate",
		base:  rep(result{Name: g.entry, NsPerOp: 100}),
		fresh: rep(result{Name: g.entry, NsPerOp: 130}),
		pass:  false, want: []string{"REGRESSION"},
	}})
}

func TestCompareMissingFromBaseline(t *testing.T) {
	// A gated benchmark introduced by this run must be an explicit SKIP, not
	// a crash and not a silent pass.
	runCompareCases(t, []compareCase{{
		name: "relative gate missing from baseline",
		base: rep(result{Name: "engine_schedule_dispatch_typed", NsPerOp: 100}),
		fresh: rep(
			result{Name: "engine_schedule_dispatch_typed", NsPerOp: 100},
			result{Name: "telemetry_overhead", NsPerOp: 50},
		),
		pass: true, want: []string{"telemetry_overhead", "SKIP: not in baseline"},
	}})
}

func TestCompareMissingFromRun(t *testing.T) {
	// A gated baseline entry the run no longer produces means the baseline is
	// stale: warn loudly, don't fail (the rename PR regenerates it).
	runCompareCases(t, []compareCase{{
		name: "relative gate missing from run",
		base: rep(
			result{Name: "engine_schedule_dispatch_typed", NsPerOp: 100},
			result{Name: "telemetry_overhead", NsPerOp: 50},
		),
		fresh: rep(result{Name: "engine_schedule_dispatch_typed", NsPerOp: 100}),
		pass:  true, want: []string{"telemetry_overhead", "not produced by this run"},
	}})
}

func TestCompareFaultsOverheadGate(t *testing.T) {
	// The faults_overhead gate is absolute on the fresh run (no baseline
	// entry needed): the disabled fault path may cost at most the per-run
	// controller allocation.
	g := gateFor(t, "faults_overhead")
	runCompareCases(t, []compareCase{{
		name:  "1 extra alloc/op under the ceiling",
		fresh: rep(extra(g.entry, g.metric, 1)),
		pass:  true, want: []string{"faults_overhead", "ok"},
	}})
}

func TestCompareFaultsOverheadRegression(t *testing.T) {
	g := gateFor(t, "faults_overhead")
	runCompareCases(t, []compareCase{{
		name:  "a per-packet allocation on the disabled fault path",
		fresh: rep(extra(g.entry, g.metric, 192)),
		pass:  false, want: []string{"REGRESSION"},
	}})
}

func TestCompareTraceOverheadGate(t *testing.T) {
	// trace_overhead is gated absolutely on the fresh run, like
	// faults_overhead: spans land in preallocated rings, so tracing may cost
	// at most measurement-window slack on the allocation side.
	g := gateFor(t, "trace_overhead")
	runCompareCases(t, []compareCase{{
		name:  "1 extra alloc/op under the ceiling",
		fresh: rep(extra(g.entry, g.metric, 1)),
		pass:  true, want: []string{"trace_overhead", "ok"},
	}, {
		name:  "a per-span allocation",
		fresh: rep(extra(g.entry, g.metric, 960)),
		pass:  false, want: []string{"REGRESSION"},
	}})
}

func TestCompareWorkloadOverheadGate(t *testing.T) {
	// workload_overhead is gated absolutely on the fresh run, like
	// faults_overhead: non-flow packets traversing an attached workload
	// driver's delivery hook return after one branch, so the event-loop
	// allocation differential may cost at most measurement-window slack.
	g := gateFor(t, "workload_overhead")
	runCompareCases(t, []compareCase{{
		name:  "1 extra alloc/op under the ceiling",
		fresh: rep(extra(g.entry, g.metric, 1)),
		pass:  true, want: []string{"workload_overhead", "ok"},
	}, {
		name:  "a per-packet allocation on the no-workload delivery path",
		fresh: rep(extra(g.entry, g.metric, 192)),
		pass:  false, want: []string{"REGRESSION"},
	}})
}

func TestCompareUnusableBaselineEntry(t *testing.T) {
	runCompareCases(t, []compareCase{{
		name:  "zero-ns/op baseline entry",
		base:  rep(result{Name: "engine_schedule_dispatch_typed", NsPerOp: 0}),
		fresh: rep(result{Name: "engine_schedule_dispatch_typed", NsPerOp: 100}),
		pass:  true, want: []string{"WARN"},
	}})
}

func TestCompareTwinSpeedupFloor(t *testing.T) {
	// twin_speedup is gated against an absolute floor on the fresh run, not
	// a baseline-relative tolerance — it must fail below the floor even when
	// the baseline agrees, and pass above it with no baseline entry at all.
	g := gateFor(t, "twin_speedup")
	low := rep(extra(g.entry, g.metric, g.bound/2))
	runCompareCases(t, []compareCase{{
		name: "speedup below the floor", base: low, fresh: low,
		pass: false, want: []string{"REGRESSION"},
	}, {
		name:  "speedup above the floor",
		fresh: rep(extra(g.entry, g.metric, g.bound*2)),
		pass:  true, want: []string{"ok"},
	}})
}

func TestCompareDatacenterUnavailable(t *testing.T) {
	// Peak RSS is unmeasurable on some platforms (reported as 0): the
	// bytes-per-node ceiling must warn, not pass or fail silently.
	g := gateFor(t, "scale_datacenter")
	runCompareCases(t, []compareCase{{
		name:  "peak RSS unavailable",
		fresh: rep(extra(g.entry, g.metric, 0)),
		pass:  true, want: []string{"WARN: bytes_per_node unavailable"},
	}})
}

func TestCompareIgnoresUngatedBenchmarks(t *testing.T) {
	// Experiment-level entries vary across machines and are never gated,
	// whatever their delta.
	runCompareCases(t, []compareCase{{
		name:  "ungated benchmark",
		base:  rep(result{Name: "fig6_transpose", NsPerOp: 100}),
		fresh: rep(result{Name: "fig6_transpose", NsPerOp: 1000}),
		pass:  true, silent: true,
	}})
}

// Command benchjson runs the simulator's headline benchmarks and writes the
// results as machine-readable JSON (BENCH_sim.json by default), for use as a
// performance-regression baseline in CI or before/after comparisons during
// optimization work.
//
//	benchjson                  # writes BENCH_sim.json
//	benchjson -out -           # JSON to stdout
//	benchjson -check BENCH_sim.json   # also check every gate; exit 1
//	                                  # naming the gates that failed
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"baldur/internal/check"
	"baldur/internal/check/calib"
	"baldur/internal/check/harness"
	"baldur/internal/exp"
	"baldur/internal/faults"
	"baldur/internal/netsim"
	"baldur/internal/prof"
	"baldur/internal/sim"
	"baldur/internal/telemetry"
	"baldur/internal/workload"
)

// result is one benchmark's measurements.
type result struct {
	Name       string             `json:"name"`
	Iterations int                `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	AllocsOp   int64              `json:"allocs_per_op"`
	BytesOp    int64              `json:"bytes_per_op"`
	Extra      map[string]float64 `json:"extra,omitempty"`
}

type report struct {
	GoOS       string   `json:"goos"`
	GoArch     string   `json:"goarch"`
	Benchmarks []result `json:"benchmarks"`
}

// gateKind is how a gate judges its metric.
type gateKind string

const (
	// relative fails when the fresh value exceeds the committed baseline's
	// by more than bound (a fraction). Needs a usable baseline entry.
	relative gateKind = "relative"
	// ceiling fails when the fresh value exceeds bound. Absolute: no
	// baseline needed.
	ceiling gateKind = "ceiling"
	// floor fails when the fresh value falls below bound. Absolute.
	floor gateKind = "floor"
)

// gate is one -check rule: benchmark entry, the metric it reads (ns_per_op
// or an extra), how it judges it, and the bound.
type gate struct {
	entry  string
	metric string
	kind   gateKind
	bound  float64
	// unit labels the metric in the check report.
	unit string
	// platform marks a metric some platforms cannot measure: a value <= 0
	// there is a WARN, not a verdict.
	platform bool
}

func (g gate) String() string {
	if g.kind == relative {
		return fmt.Sprintf("%s %s relative +%.0f%%", g.entry, g.metric, g.bound*100)
	}
	return fmt.Sprintf("%s %s %s %g", g.entry, g.metric, g.kind, g.bound)
}

// gates are every rule -check enforces; benchmarks without a row are never
// gated.
var gates = []gate{
	// The engine microbenchmarks are pure event-kernel hot loops whose
	// timings are stable enough for a hard 15% ns/op threshold over the
	// committed baseline. The experiment-level entries (fig6, full
	// simulator runs) vary too much across runner generations to gate.
	{entry: "engine_schedule_dispatch_closure", metric: "ns_per_op", kind: relative, bound: 0.15, unit: "ns/op"},
	{entry: "engine_schedule_dispatch_typed", metric: "ns_per_op", kind: relative, bound: 0.15, unit: "ns/op"},
	{entry: "telemetry_overhead", metric: "ns_per_op", kind: relative, bound: 0.15, unit: "ns/op"},
	// The lifecycle tracer's extra allocations per run: a telemetry-attached
	// cell tracing 1 in 2 packets versus the same cell with span capture
	// off. Spans land in the preallocated flight-recorder rings, so even the
	// enabled path must allocate nothing per span — which bounds the
	// disabled path (one predictable branch per lifecycle site) a fortiori.
	// The slack covers runtime-internal allocations landing inside the
	// measurement window; a real leak in the per-packet trace sites would
	// show up as hundreds per op.
	{entry: "trace_overhead", metric: "extra_allocs_op", kind: ceiling, bound: 8, unit: "extra allocs/op"},
	// Extra allocations per run for driving a fault-free cell through
	// netsim.Drive with an empty fault script versus the plain netsim.Run
	// loop. The disabled path's whole budget is the one Controller
	// allocation per run plus slack for runtime-internal allocations
	// landing inside the measurement window; an allocation creeping into the
	// per-arrival fault guards would show up as hundreds per op (the cell
	// injects 192 packets).
	{entry: "faults_overhead", metric: "extra_allocs_op", kind: ceiling, bound: 8, unit: "extra allocs/op"},
	// Extra allocations per run inside the event loop for an open-loop cell
	// whose network has a service workload driver attached but carries no
	// flow traffic. Non-flow packets return from the workload's delivery
	// hook after a single Flow == 0 branch — the same nil-probe discipline
	// as the telemetry and fault layers — so the differential must be zero
	// up to runtime-internal allocations landing inside the measurement
	// window. A real allocation creeping into the delivery probe would scale
	// with the cell's packet count (hundreds per op).
	{entry: "workload_overhead", metric: "extra_allocs_op", kind: ceiling, bound: 8, unit: "extra allocs/op"},
	// The analytical twin's wall-clock speedup over the packet engine on the
	// twin_speedup sweep. Absolute on the fresh run, not baseline-relative:
	// the twin's whole reason to exist is the orders-of-magnitude ratio, so
	// the gate pins the claim itself.
	{entry: "twin_speedup", metric: "speedup_x", kind: floor, bound: 100, unit: "x speedup"},
	// Peak resident bytes per simulated node for the 128K-node runs.
	// Measured ~4.3 KB/node with the SoA state layout; the ceiling leaves
	// headroom for allocator and runner variance while still catching a
	// return to pointer-heavy per-node state (which measured several times
	// higher). Absolute, because bounded memory per node is the claim the
	// entry exists to pin.
	{entry: "scale_datacenter", metric: "bytes_per_node", kind: ceiling, bound: 8192, unit: "B/node", platform: true},
}

func main() {
	out := flag.String("out", "BENCH_sim.json", "output file ('-' for stdout)")
	check := flag.String("check", "", "baseline JSON to diff against; exits 1 naming each failed gate ("+gateList(gates)+")")
	flag.Parse()

	benchmarks := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"engine_schedule_dispatch_closure", benchEngineClosure},
		{"engine_schedule_dispatch_typed", benchEngineTyped},
		{"fig6_transpose", benchFig6Transpose},
		{"baldur_simulator", benchBaldurSimulator},
		{"baldur_simulator_sharded", benchBaldurSimulatorSharded},
		{"telemetry_overhead", benchTelemetryOverhead},
		{"trace_overhead", benchTraceOverhead},
		{"faults_overhead", benchFaultsOverhead},
		{"workload_overhead", benchWorkloadOverhead},
		{"twin_speedup", benchTwinSpeedup},
		// Last on purpose: peak RSS is a process-lifetime high-water mark,
		// so the 128K-node runs must come after every smaller benchmark for
		// bytes_per_node to measure them and not be measured by them.
		{"scale_datacenter", benchScaleDatacenter},
	}

	rep := report{GoOS: runtime.GOOS, GoArch: runtime.GOARCH, Benchmarks: make([]result, 0, len(benchmarks))}
	for _, bm := range benchmarks {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			bm.fn(b)
		})
		res := result{
			Name:       bm.name,
			Iterations: r.N,
			NsPerOp:    float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsOp:   r.AllocsPerOp(),
			BytesOp:    r.AllocedBytesPerOp(),
		}
		if len(r.Extra) > 0 {
			res.Extra = r.Extra
		}
		rep.Benchmarks = append(rep.Benchmarks, res)
		fmt.Fprintf(os.Stderr, "%-36s %12.1f ns/op %8d allocs/op\n", bm.name, res.NsPerOp, res.AllocsOp)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	switch {
	case *out == "-":
		os.Stdout.Write(data)
	case *out != "":
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
	if *check != "" && !checkAgainst(*check, rep) {
		os.Exit(1)
	}
}

// gateList joins gates for messages.
func gateList(gs []gate) string {
	names := make([]string, len(gs))
	for i, g := range gs {
		names[i] = g.String()
	}
	return strings.Join(names, "; ")
}

// checkAgainst compares the fresh measurements against a committed baseline
// and reports whether every gate held, naming the ones that failed.
func checkAgainst(path string, fresh report) bool {
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var base report
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal(fmt.Errorf("parsing baseline %s: %w", path, err))
	}
	failed := compare(base, fresh, os.Stderr)
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d gate(s) failed vs %s: %s\n", len(failed), path, gateList(failed))
	}
	return len(failed) == 0
}

// metricOf reads a gate's metric from a result: ns_per_op or an extra.
func metricOf(r result, metric string) float64 {
	if metric == "ns_per_op" {
		return r.NsPerOp
	}
	return r.Extra[metric]
}

// compare checks every gate against a fresh report (and, for relative
// gates, the baseline), writes one line per judged gate to w, and returns
// the gates that failed. Mismatched sets never crash and never fail a gate
// silently: a relative gate's entry missing from the baseline (the PR that
// introduces it) is an explicit SKIP, an unusable baseline value (<= 0) is
// a WARN, and a relative gate's baseline entry the run no longer produces
// (renamed or deleted benchmark: the stale baseline should be regenerated)
// is a WARN.
func compare(base, fresh report, w io.Writer) (failed []gate) {
	baseline := make(map[string]result, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		baseline[r.Name] = r
	}
	produced := make(map[string]bool, len(fresh.Benchmarks))
	for _, r := range fresh.Benchmarks {
		produced[r.Name] = true
		for _, g := range gates {
			if g.entry != r.Name {
				continue
			}
			v := metricOf(r, g.metric)
			var held bool
			switch g.kind {
			case relative:
				b, found := baseline[r.Name]
				bv := metricOf(b, g.metric)
				switch {
				case !found:
					fmt.Fprintf(w, "check %-36s SKIP: not in baseline (new benchmark? regenerate the baseline to gate it)\n", r.Name)
					continue
				case bv <= 0:
					fmt.Fprintf(w, "check %-36s WARN: baseline %s = %g is unusable; not gated\n", r.Name, g.metric, bv)
					continue
				}
				held = v/bv <= 1+g.bound
				fmt.Fprintf(w, "check %-36s %8.1f -> %8.1f %s (%+.1f%%, relative +%.0f%%) %s\n",
					r.Name, bv, v, g.unit, (v/bv-1)*100, g.bound*100, verdict(held))
			case ceiling, floor:
				if g.platform && v <= 0 {
					fmt.Fprintf(w, "check %-36s WARN: %s unavailable on this platform; not gated\n", r.Name, g.metric)
					continue
				}
				held = v <= g.bound
				if g.kind == floor {
					held = v >= g.bound
				}
				fmt.Fprintf(w, "check %-36s %8.1f %s (%s %g) %s\n", r.Name, v, g.unit, g.kind, g.bound, verdict(held))
			}
			if !held {
				failed = append(failed, g)
			}
		}
	}
	for _, g := range gates {
		if _, inBase := baseline[g.entry]; g.kind == relative && inBase && !produced[g.entry] {
			fmt.Fprintf(w, "check %-36s WARN: in baseline but not produced by this run; baseline is stale\n", g.entry)
		}
	}
	return failed
}

func verdict(held bool) string {
	if held {
		return "ok"
	}
	return "REGRESSION"
}

// benchEngineClosure mirrors BenchmarkEngineScheduleDispatch in
// internal/sim: a self-rescheduling closure with 1000 events in flight.
func benchEngineClosure(b *testing.B) {
	e := sim.NewEngine()
	rng := sim.NewRNG(1)
	var fn func()
	n := 0
	fn = func() {
		if n < b.N {
			n++
			e.After(sim.Duration(rng.Intn(1000)+1), fn)
		}
	}
	for i := 0; i < 1000 && n < b.N; i++ {
		n++
		e.At(sim.Time(rng.Intn(1000)), fn)
	}
	b.ResetTimer()
	e.Run()
}

// jsonEvent is the typed-path analogue: one event rescheduling itself.
type jsonEvent struct {
	rng *sim.RNG
	n   int
	max int
}

func (ev *jsonEvent) Run(e *sim.Engine) {
	if ev.n < ev.max {
		ev.n++
		e.ScheduleAfter(sim.Duration(ev.rng.Intn(1000)+1), ev)
	}
}

func benchEngineTyped(b *testing.B) {
	e := sim.NewEngine()
	rng := sim.NewRNG(1)
	ev := &jsonEvent{rng: rng, max: b.N}
	for i := 0; i < 1000 && ev.n < b.N; i++ {
		ev.n++
		e.Schedule(sim.Time(rng.Intn(1000)), ev)
	}
	b.ResetTimer()
	e.Run()
}

func benchScale() exp.Scale {
	sc := exp.Quick
	sc.PacketsPerNode = 60
	return sc
}

func benchFig6Transpose(b *testing.B) {
	loads := []float64{0.3, 0.7}
	var res []exp.Fig6Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = exp.Fig6(benchScale(), []string{"transpose"}, loads, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range res[0].Points {
		if p.Network == "baldur" && p.Load == 0.7 {
			b.ReportMetric(p.AvgNS, "baldur_avg_ns@0.7")
		}
	}
}

func benchBaldurSimulator(b *testing.B) {
	sc := benchScale()
	totalPackets := 0
	var totalEvents uint64
	for i := 0; i < b.N; i++ {
		p, err := exp.RunOpenLoop("baldur", "random_permutation", 0.7, sc)
		if err != nil {
			b.Fatal(err)
		}
		totalEvents += p.Events
		totalPackets += sc.Nodes * sc.PacketsPerNode
	}
	b.ReportMetric(float64(totalPackets)/b.Elapsed().Seconds(), "packets/s")
	b.ReportMetric(float64(totalEvents)/b.Elapsed().Seconds(), "events/s")
}

// benchBaldurSimulatorSharded is the same workload as benchBaldurSimulator
// split across 8 conservative-parallel shards (the ISSUE's target core
// count; statistics are bit-identical to the serial entry). Compare its
// packets/s extra against baldur_simulator's for the parallel speedup on
// the current machine.
func benchBaldurSimulatorSharded(b *testing.B) {
	sc := benchScale()
	sc.Shards = 8
	totalPackets := 0
	var totalEvents, totalEpochs uint64
	for i := 0; i < b.N; i++ {
		p, epochs, _, err := exp.RunOpenLoopDetail("baldur", "random_permutation", 0.7, sc)
		if err != nil {
			b.Fatal(err)
		}
		totalEvents += p.Events
		totalEpochs += epochs
		totalPackets += sc.Nodes * sc.PacketsPerNode
	}
	b.ReportMetric(float64(sc.Shards), "shards")
	b.ReportMetric(float64(totalPackets)/b.Elapsed().Seconds(), "packets/s")
	b.ReportMetric(float64(totalEvents)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(totalEpochs)/b.Elapsed().Seconds(), "epochs/s")
}

// benchTelemetryOverhead is benchBaldurSimulator with the full telemetry
// layer enabled (counters, gauges, and the flight recorder; no file
// export): the recording tax of the instrumented path. The disabled path is
// baldur_simulator itself — probes stay nil there, so comparing the two
// entries' ns/op gives the full on/off cost of the observability layer.
func benchTelemetryOverhead(b *testing.B) {
	sc := benchScale()
	var totalSamples, totalRecords int
	for i := 0; i < b.N; i++ {
		// Fresh Options per run: the harness treats them as per-run state.
		sc.Telemetry = &telemetry.Options{}
		_, _, tel, err := exp.RunOpenLoopDetail("baldur", "random_permutation", 0.7, sc)
		if err != nil {
			b.Fatal(err)
		}
		totalSamples += len(tel.Sampler.Samples)
		for s := 0; s < tel.Reg.Shards(); s++ {
			totalRecords += tel.Ring(s).Len()
		}
	}
	b.ReportMetric(float64(totalSamples)/float64(b.N), "samples/run")
	b.ReportMetric(float64(totalRecords)/float64(b.N), "records/run")
}

// overheadCfg is the small open-loop baldur cell (192 packets) the
// disabled-path overhead entries drive to overheadDeadline.
var overheadCfg = check.FuzzConfig{
	Net: "baldur", NodesExp: 4, LoadPct: 70, PacketsPerNode: 12,
	FaultStage: -1, Seed: 1,
}.Canon()

// overheadDeadline is the virtual-time horizon the overheadCfg runs are
// driven to.
const overheadDeadline = sim.Time(500 * sim.Microsecond)

// benchTraceOverhead prices the packet-lifecycle tracer: the same
// telemetry-attached baldur cell runs b.N times with span capture off and
// b.N times tracing 1 in 2 packets, and the allocation difference per run
// is reported as extra_allocs_op. Both sides preallocate identical
// flight-recorder rings, so the differential isolates the per-packet trace
// sites; spans are written in place into the rings and must not allocate
// even when sampled. -check gates extra_allocs_op against its absolute
// ceiling in gates (no baseline needed), pinning the acceptance claim that
// a trace-capable build costs untraced runs nothing on the allocation side.
func benchTraceOverhead(b *testing.B) {
	measure := func(every int) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < b.N; i++ {
			sc := benchScale()
			sc.Telemetry = &telemetry.Options{FlightRecords: 1 << 17, TraceSample: every}
			if _, _, _, err := exp.RunOpenLoopDetail("baldur", "random_permutation", 0.7, sc); err != nil {
				b.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(b.N)
	}
	off := measure(0)
	on := measure(2)
	b.ReportMetric(on-off, "extra_allocs_op")
	b.ReportMetric(off, "untraced_allocs_op")
}

// benchFaultsOverhead prices the fault-injection layer's disabled path: the
// same open-loop baldur cell runs b.N times through the plain netsim.Run
// loop and b.N times through netsim.Drive with an empty fault script, and the
// allocation difference per run is reported as extra_allocs_op. The ns/op of
// this entry covers both phases and is not gated; -check gates
// extra_allocs_op against its absolute ceiling in gates, pinning the
// claim that a fault-capable build costs scripted-free runs nothing on the
// allocation side.
func benchFaultsOverhead(b *testing.B) {
	measure := func(drive func(net netsim.Network)) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < b.N; i++ {
			net, _, err := harness.Build(overheadCfg, 1)
			if err != nil {
				b.Fatal(err)
			}
			var col netsim.Collector
			col.Attach(net)
			harness.StartOpenLoop(overheadCfg, net)
			drive(net)
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(b.N)
	}
	plain := measure(func(net netsim.Network) { netsim.Run(net, overheadDeadline) })
	scripted := measure(func(net netsim.Network) {
		ctrl := faults.NewController(faults.Script{})
		if _, err := netsim.Drive(net, overheadDeadline, netsim.DriveOptions{Script: ctrl}); err != nil {
			b.Fatal(err)
		}
	})
	b.ReportMetric(scripted-plain, "extra_allocs_op")
	b.ReportMetric(plain, "plain_allocs_op")
}

// benchWorkloadOverhead prices the service-workload layer's disabled path:
// the same open-loop baldur cell runs b.N times with no workload driver and
// b.N times with an idle driver attached (its only tenant's first arrival
// falls far beyond the workload deadline, and a reject_all policy backstops
// the astronomically unlikely early draw), and the allocation difference per
// run is reported as extra_allocs_op. Unlike faults_overhead, the
// measurement window covers only the event loop — driver setup (per-shard
// accumulators, per-source injectors) is a legitimate fixed attach cost and
// is excluded — so the differential isolates the per-delivery nil probe:
// every OpenLoop packet traverses the workload's delivery hook and must
// return after the one Flow == 0 branch without allocating. -check gates
// extra_allocs_op against its absolute ceiling in gates.
func benchWorkloadOverhead(b *testing.B) {
	idle := workload.Spec{
		Name:       "idle",
		Seed:       1,
		DurationUS: 1,
		Tenants: []workload.TenantSpec{{
			Name:      "idle",
			Arrival:   workload.ArrivalSpec{Process: "poisson", RateFPS: 1e-3},
			Size:      workload.SizeSpec{Dist: "fixed", Bytes: 512},
			Admission: workload.PolicySpec{Policy: "reject_all"},
		}},
	}
	measure := func(attach bool) float64 {
		var total uint64
		var before, after runtime.MemStats
		for i := 0; i < b.N; i++ {
			net, _, err := harness.Build(overheadCfg, 1)
			if err != nil {
				b.Fatal(err)
			}
			var col netsim.Collector
			col.Attach(net)
			if attach {
				drv, err := workload.New(idle)
				if err != nil {
					b.Fatal(err)
				}
				if err := drv.Attach(net); err != nil {
					b.Fatal(err)
				}
			}
			harness.StartOpenLoop(overheadCfg, net)
			runtime.ReadMemStats(&before)
			netsim.Run(net, overheadDeadline)
			runtime.ReadMemStats(&after)
			total += after.Mallocs - before.Mallocs
		}
		return float64(total) / float64(b.N)
	}
	plain := measure(false)
	attached := measure(true)
	b.ReportMetric(attached-plain, "extra_allocs_op")
	b.ReportMetric(plain, "plain_allocs_op")
}

// benchTwinSpeedup measures the analytical twin's wall-clock advantage over
// the packet engine on the heavy half of a Fig-6 sweep column (every
// network, transpose, loads 0.7 and 0.9 — the cells that dominate a real
// sweep's wall time). Packets per node is pinned at the paper's 10,000: the
// packet engine's cost scales linearly with per-node volume while the
// twin's is nearly independent of it (its only O(packets) term is the
// injection-draw replay at ~10 ns/draw), so CI-sized node counts at full
// per-node volume reproduce the wall-time ratio that matters for real
// sweeps. The speedup_x extra is gated by -check against an absolute
// >=100x floor.
func benchTwinSpeedup(b *testing.B) {
	sc := exp.Quick
	sc.PacketsPerNode = 10000
	g := calib.Grid{
		Networks: exp.NetworkNames,
		Patterns: []string{"transpose"},
		Loads:    []float64{0.7, 0.9},
	}
	var last calib.Report
	for i := 0; i < b.N; i++ {
		rep, err := calib.Run(sc, g)
		if err != nil {
			b.Fatal(err)
		}
		last = rep
	}
	b.ReportMetric(last.SpeedupX, "speedup_x")
	b.ReportMetric(last.PacketWallMS, "packet_wall_ms")
	b.ReportMetric(last.TwinWallMS, "twin_wall_ms")
}

// benchScaleDatacenter runs the 128K-node memory-diet preset end to end —
// one 131,072-node Baldur run and one 128,000-host fat-tree run per
// iteration — and reports throughput plus the process's peak RSS read after
// both complete. bytes_per_node divides that peak by the Baldur node count
// (the larger denominator of the two would flatter the number; the preset's
// nominal scale is the honest one). -check gates bytes_per_node against the
// absolute ceiling in gates rather than a baseline ratio.
func benchScaleDatacenter(b *testing.B) {
	sc := exp.Datacenter
	var baldurEvents, fattreeEvents uint64
	for i := 0; i < b.N; i++ {
		p, err := exp.RunOpenLoop("baldur", "random_permutation", 0.5, sc)
		if err != nil {
			b.Fatal(err)
		}
		baldurEvents += p.Events
		p, err = exp.RunOpenLoop("fattree", "random_permutation", 0.5, sc)
		if err != nil {
			b.Fatal(err)
		}
		fattreeEvents += p.Events
	}
	secs := b.Elapsed().Seconds()
	b.ReportMetric(float64(baldurEvents+fattreeEvents)/secs, "events/s")
	b.ReportMetric(float64(baldurEvents)/float64(b.N), "baldur_events/run")
	b.ReportMetric(float64(fattreeEvents)/float64(b.N), "fattree_events/run")
	peak := prof.PeakRSSBytes()
	b.ReportMetric(float64(peak), "peak_rss_bytes")
	b.ReportMetric(float64(peak)/float64(sc.Nodes), "bytes_per_node")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

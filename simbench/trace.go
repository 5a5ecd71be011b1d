package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

// shareModules are the modules with a <module>.share metric; samples in any
// other program module count toward other.share.
var shareModules = []string{
	"sim", "core", "elecnet", "traffic", "netsim", "stats", "dropmodel",
	"workload", "faults", "check", "runtime",
}

// layerUnits lists every per-layer metric and its unit. A metric that a
// workload does not load reads 0.
var layerUnits = func() map[string]string {
	u := map[string]string{
		"other.share":                "ratio",
		"sim.events":                 "count",
		"sim.ns_per_event":           "ns",
		"sim.epochs":                 "count",
		"sim.parallel_efficiency":    "ratio",
		"sim.cpu_util":               "cores",
		"core.build_s":               "s",
		"core.delivered_per_attempt": "ratio",
		"core.retransmissions":       "count",
		"core.ack_drops":             "count",
		"elecnet.build_s":            "s",
		"elecnet.events_per_packet":  "ratio",
		"traffic.start_s":            "s",
		"netsim.fold_s":              "s",
		"dropmodel.n1024_s":          "s",
		"dropmodel.n16384_s":         "s",
		"dropmodel.n262144_s":        "s",
		"reliability.montecarlo_s":   "s",
		"exp.campaign_s":             "s",
		"faults.events_applied":      "count",
		"faults.gave_up":             "count",
		"check.checkpoints":          "count",
		"runtime.allocs_per_packet":  "ratio",
		"runtime.alloc_mb":           "MB",
		"runtime.gc_cycles":          "count",
		"runtime.gc_pause_ms":        "ms",
		"runtime.cpu_s":              "s",
		"bench.trace_overhead":       "ratio",
	}
	for _, m := range shareModules {
		u[m+".share"] = "ratio"
	}
	for _, e := range reproExperiments {
		u["exp."+e+"_s"] = "s"
	}
	return u
}()

// profileHz is the CPU profile's sampling rate.
const profileHz = 1000

// tracedRun measures the workload untraced for half the budget, then (for
// sharded workloads) at K=1 for a quarter, then under a CPU profile for
// half, and derives the per-layer metrics. Every pass is verified.
func tracedRun(w workload, seed uint64, seconds float64, v *verifier) (map[string]metric, error) {
	m := make(map[string]metric, len(layerUnits))
	set := func(name string, val float64) {
		unit, ok := layerUnits[name]
		if !ok {
			panic("simbench: undeclared per-layer metric " + name)
		}
		m[name] = metric{val, unit}
	}
	wall := func(p pass) float64 { return p.wall }

	base := median(field(measure(w, seed, permShards, seconds/2, v), wall))
	var serial float64
	if w.sharded {
		serial = median(field(measure(w, seed, 1, seconds/4, v), wall))
	}

	var buf bytes.Buffer
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	// Sample at profileHz rather than pprof's fixed 100 Hz, so that modules
	// holding a fraction of a percent of the CPU (faults, check) still get
	// samples. StartCPUProfile then cannot reset the rate and says so on
	// standard error; the profile records the rate actually used.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	t := time.Now()
	traced := measure(w, seed, permShards, seconds/2, v)
	phase := since(t)
	pprof.StopCPUProfile()
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)

	fold, total, err := foldProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("CPU profile of %.1f s holds no samples", phase)
	}

	// Metrics the passes did not record (shares, and layers the workload
	// never calls) start at 0.
	for name := range layerUnits {
		set(name, median(field(traced, func(p pass) float64 { return p.layer[name] })))
	}
	for mod, n := range fold {
		key := mod + ".share"
		if _, ok := layerUnits[key]; !ok {
			key = "other.share"
		}
		set(key, m[key].Value+float64(n)/float64(total))
	}

	set("sim.parallel_efficiency", ratio(serial, permShards*base))
	set("sim.ns_per_event", median(field(traced, func(p pass) float64 {
		return 1e9 * ratio(p.eventWall, p.layer["sim.events"])
	})))
	n := float64(len(traced))
	var packets float64
	for _, p := range traced {
		packets += float64(p.packets)
	}
	set("sim.cpu_util", cpu/phase)
	set("runtime.cpu_s", cpu/n)
	set("runtime.allocs_per_packet", ratio(float64(ms1.Mallocs-ms0.Mallocs), packets))
	set("runtime.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/n/(1<<20))
	set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC)/n)
	set("runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/n/1e6)
	set("bench.trace_overhead", median(field(traced, wall))/base)

	if w.name == "repro_quick" {
		spans, err := reproCallSpans(seed)
		if err != nil {
			return nil, err
		}
		for name, s := range spans {
			set(name, s)
		}
	}
	return m, nil
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// Package exp is the experiment harness: one runner per table and figure of
// the paper's evaluation, each reproducing the corresponding rows/series
// (Table IV, Table V, Fig 5 is covered by internal/switchckt tests, Fig 6,
// Fig 7, Fig 8, Fig 9, Fig 10, plus the Sec IV-E drop-model, Sec IV-F
// reliability, Sec IV-G packaging and Sec VII AWGR analyses).
//
// Each runner is parameterized by a Scale: Quick (CI-sized: fewer nodes and
// packets; shapes and orderings preserved) or Full (the paper's 1,024-node /
// 10,000-packets-per-node configuration — minutes of CPU).
package exp

import (
	"fmt"
	"strings"

	"baldur/internal/check"
	"baldur/internal/core"
	"baldur/internal/elecnet"
	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/telemetry"
	"baldur/internal/traffic"
	"baldur/internal/twin"
)

// Scale selects the experiment size.
type Scale struct {
	Name           string
	Nodes          int // Baldur / electrical MB node count (power of two)
	PacketsPerNode int
	DragonflyP     int // dragonfly parameter p
	FatTreeK       int // fat-tree radix
	TraceIters     int // HPC workload iterations
	Seed           uint64
	// MaxSimTime bounds a single run's virtual time as a safety net
	// against saturation-induced crawl (0 = 1 s of virtual time).
	MaxSimTime sim.Duration
	// Warmup excludes packets created before this virtual time from the
	// latency statistics (steady-state measurement; 0 = measure all).
	Warmup sim.Duration
	// Shards selects the conservative-parallel shard count for each
	// simulated network (0 or 1: serial). Results are bit-identical for
	// any value; sharding only changes wall-clock time. Trace replays
	// always run serially regardless of this setting.
	Shards int
	// Audit, when non-nil, attaches the invariant-audit layer to every
	// auditable network a runner builds and fails the run on the first
	// checkpoint with conservation violations. The ideal network is
	// analytic and is never audited. Auditing never changes results — only
	// verifies them — so any Shards value stays bit-identical.
	Audit *check.Options
	// Telemetry, when non-nil, attaches the observability layer (metric
	// sampling, flight recorder, watch dashboard) to every instrumented
	// network a runner builds and writes the configured exports when the
	// cell finishes. The sampled series is bit-identical for any Shards
	// value. The ideal network is analytic and stays uninstrumented.
	Telemetry *telemetry.Options
	// TelemetryPerCell tags telemetry output paths with the cell name
	// (network-pattern-load) so multi-cell runners (Fig 6/7) do not
	// overwrite one file per cell. cmd/figures sets this.
	TelemetryPerCell bool
	// Watchdog is the trace-replay progress watchdog window: if no rank
	// advances for this much simulated time while events keep executing,
	// the replay stops with a stuck-rank report (0 disables). It is checked
	// at the run's slice boundaries, so it trips at slice granularity.
	Watchdog sim.Duration
	// Fidelity selects the model tier for open-loop cells: packet (the
	// event-level engine, the default) or twin (the analytical flow-level
	// model in internal/twin — microseconds per cell, calibrated against
	// the packet engine by internal/check/calib). Workload replays and
	// ping-pong cells are packet-only.
	Fidelity netsim.Fidelity
	// MaxParallel caps the number of simulation cells resident at once in
	// the fan-out runners (0: GOMAXPROCS, the historical behaviour). Every
	// concurrent cell holds a full network instance, so the large-memory
	// scales set this to keep peak RSS at one-or-two networks' worth
	// instead of multiplying it by the CPU count.
	MaxParallel int
}

// Quick is the CI-sized scale. Node counts are matched as closely as the
// three topologies allow (64 / 72 / 54), so cross-network comparisons are
// not skewed by size.
var Quick = Scale{
	Name:           "quick",
	Nodes:          64,
	PacketsPerNode: 100,
	DragonflyP:     2, // 72 nodes
	FatTreeK:       6, // 54 hosts
	TraceIters:     2,
	Seed:           1,
}

// Medium sits between Quick and Full: 256 / 342 / 250 nodes.
var Medium = Scale{
	Name:           "medium",
	Nodes:          256,
	PacketsPerNode: 400,
	DragonflyP:     3,  // 342 nodes
	FatTreeK:       10, // 250 hosts
	TraceIters:     3,
	Seed:           1,
}

// Full is the paper's configuration: 1,024-node Baldur/MB, 1,056-node
// dragonfly, 1,024-host fat-tree, 10,000 packets per node.
var Full = Scale{
	Name:           "full",
	Nodes:          1024,
	PacketsPerNode: 10000,
	DragonflyP:     4,
	FatTreeK:       16,
	TraceIters:     4,
	Seed:           1,
}

// Mid is the shard-invariance stress scale: 8,192-node Baldur/MB, a
// 9,702-node dragonfly and an 8,192-host fat-tree with a light packet
// budget. Big enough that SoA-layout or sharding regressions that hide at
// 1K nodes surface, small enough for CI (seconds per cell).
var Mid = Scale{
	Name:           "mid",
	Nodes:          8192,
	PacketsPerNode: 50,
	DragonflyP:     7,  // 9,702 nodes
	FatTreeK:       32, // 8,192 hosts
	TraceIters:     1,
	Seed:           1,
	MaxParallel:    2,
}

// Datacenter is the memory-diet scale the paper's Section VI power/cost
// sweeps reach analytically: 131,072-node Baldur/MB and a 128,000-host
// fat-tree, simulated at packet level. The packet budget is deliberately
// tiny — the point of the preset is that per-node *state* (NICs, routers,
// tables, collectors) fits in bounded RSS, which is independent of how
// many packets flow. One cell runs at a time (MaxParallel 1) so peak RSS
// is one network's worth.
var Datacenter = Scale{
	Name:           "datacenter",
	Nodes:          131072,
	PacketsPerNode: 8,
	DragonflyP:     13, // 114,582 nodes
	FatTreeK:       80, // 128,000 hosts
	TraceIters:     1,
	Seed:           1,
	MaxParallel:    1,
}

// Scales lists the named presets from smallest to largest.
var Scales = []*Scale{&Quick, &Medium, &Full, &Mid, &Datacenter}

// ScaleByName returns the named preset (quick, medium, full, mid,
// datacenter) by value, so callers can override fields freely.
func ScaleByName(name string) (Scale, bool) {
	for _, sc := range Scales {
		if sc.Name == name {
			return *sc, true
		}
	}
	return Scale{}, false
}

// ScaleNames returns the preset names in Scales order, for flag help.
func ScaleNames() []string {
	out := make([]string, len(Scales))
	for i, sc := range Scales {
		out[i] = sc.Name
	}
	return out
}

func (sc Scale) maxSim() sim.Time {
	if sc.MaxSimTime == 0 {
		return sim.Time(1 * sim.Second)
	}
	return sim.Time(sc.MaxSimTime)
}

// NetworkNames lists the evaluated networks in the paper's order.
var NetworkNames = []string{"baldur", "multibutterfly", "dragonfly", "fattree", "ideal"}

// build constructs one named network at the given scale. Patterns are
// generated per network because node counts differ slightly (1,024 vs
// 1,056), exactly as in the paper.
func build(name string, sc Scale) (netsim.Network, error) {
	switch name {
	case "baldur":
		return core.New(core.Config{Nodes: sc.Nodes, Seed: sc.Seed, Shards: sc.Shards})
	case "multibutterfly":
		return elecnet.NewMultiButterfly(elecnet.MBConfig{Nodes: sc.Nodes, Multiplicity: 4, Seed: sc.Seed, Shards: sc.Shards})
	case "dragonfly":
		return elecnet.NewDragonfly(elecnet.DragonflyConfig{P: sc.DragonflyP, Seed: sc.Seed, Shards: sc.Shards})
	case "fattree":
		return elecnet.NewFatTree(elecnet.FatTreeConfig{K: sc.FatTreeK, Shards: sc.Shards})
	case "ideal":
		return elecnet.NewIdeal(sc.Nodes, 0), nil
	}
	return nil, fmt.Errorf("exp: unknown network %q", name)
}

// patternFor generates a named traffic pattern sized for the given network.
func patternFor(pattern string, nodes int, sc Scale) (*traffic.Pattern, error) {
	// Dragonfly group size at this scale (for group_permutation and
	// ping_pong2 the paper constructs pairs from dragonfly groups and
	// replays them on every network).
	group := 2 * sc.DragonflyP * sc.DragonflyP // a*p
	switch pattern {
	case "random_permutation":
		return traffic.RandomPermutation(nodes, sc.Seed+10), nil
	case "transpose":
		return traffic.Transpose(nodes), nil
	case "bisection":
		return traffic.Bisection(nodes, sc.Seed+11), nil
	case "group_permutation":
		return traffic.GroupPermutation(nodes, group, sc.Seed+12), nil
	case "hotspot":
		return traffic.Hotspot(nodes, 0), nil
	case "ping_pong1":
		return traffic.PingPongPairs1(nodes, sc.Seed+13), nil
	case "ping_pong2":
		return traffic.PingPongPairs2(nodes, group, sc.Seed+14), nil
	}
	return nil, fmt.Errorf("exp: unknown pattern %q", pattern)
}

// Fig6Patterns are the open-loop patterns of Fig 6.
var Fig6Patterns = []string{"random_permutation", "transpose", "bisection", "group_permutation"}

// Fig6Loads are the swept input loads.
var Fig6Loads = []float64{0.1, 0.3, 0.5, 0.7, 0.9}

// Point is one measurement: a network at one load.
type Point struct {
	Network  string
	Load     float64
	AvgNS    float64
	TailNS   float64
	DropRate float64 // data drops per attempt; 0 for lossless networks
	// ThroughputPPS is the delivered-packet rate over the span from start
	// to the last delivery (virtual time). Both fidelity tiers report it;
	// it is the throughput metric the twin calibration gates on.
	ThroughputPPS float64
	Finished      bool   // false if the safety horizon cut the run short
	Events        uint64 // simulator events executed; 0 under the twin tier
}

// runOpenLoopCell measures one (network, pattern, load) cell into col,
// whose sample and histogram allocations are reused across calls (series
// runners sweep five loads through one collector). The network is nil
// under the twin tier.
func runOpenLoopCell(col *netsim.Collector, network, pattern string, load float64, sc Scale) (Point, netsim.Network, *telemetry.Telemetry, error) {
	if sc.Fidelity == netsim.FidelityTwin {
		p, err := twinOpenLoopCell(network, pattern, load, sc)
		return p, nil, nil, err
	}
	return openLoopCell(col, "", network, pattern, load, sc)
}

// openLoopCell runs one packet-level open-loop cell; prefix tags its
// telemetry label, so runners that repeat a Fig 6 cell export apart.
func openLoopCell(col *netsim.Collector, prefix, network, pattern string, load float64, sc Scale) (Point, netsim.Network, *telemetry.Telemetry, error) {
	p, net, tel, err := patternCell(col, network, pattern, sc,
		func() string { return fmt.Sprintf("%s%s-%s-%g", prefix, network, pattern, load) },
		func(pat *traffic.Pattern) func(netsim.Network) {
			ol := &traffic.OpenLoop{
				Pattern:        pat,
				Load:           load,
				PacketsPerNode: sc.PacketsPerNode,
				Seed:           sc.Seed + 100,
			}
			return ol.Start
		})
	if err != nil {
		return Point{}, nil, nil, err
	}
	p.Load = load
	if last := col.LastDelivery(); last > 0 {
		p.ThroughputPPS = float64(col.Delivered()) / sim.Duration(last).Seconds()
	}
	return p, net, tel, nil
}

// patternCell runs one packet-level cell of a named traffic pattern and
// exports its telemetry. source turns the pattern into the traffic
// source's start; label names the cell's telemetry and is only called when
// telemetry is on, keeping its Sprintf off the disabled path.
func patternCell(col *netsim.Collector, network, pattern string, sc Scale, label func() string, source func(*traffic.Pattern) func(netsim.Network)) (Point, netsim.Network, *telemetry.Telemetry, error) {
	net, err := build(network, sc)
	if err != nil {
		return Point{}, nil, nil, err
	}
	pat, err := patternFor(pattern, net.NumNodes(), sc)
	if err != nil {
		return Point{}, nil, nil, err
	}
	var name string
	if sc.Telemetry != nil {
		name = label()
	}
	start := source(pat)
	run, err := runCell(net, col, func(n netsim.Network) error { start(n); return nil }, sc.cell(network, pattern, name))
	if err == nil {
		err = writeTelemetry(run.tel, sc, name)
	}
	if err != nil {
		return Point{}, nil, nil, err
	}
	return Point{
		Network:  network,
		AvgNS:    run.col.AvgNS(),
		TailNS:   run.col.TailNS(),
		DropRate: net.Counters().DataDropRate(),
		Finished: !run.more,
		Events:   netsim.Events(net),
	}, net, run.tel, nil
}

// twinOpenLoopCell answers one open-loop cell from the analytical tier:
// same pattern generators, same sizing, no event simulation. Finished
// mirrors the packet tier's safety horizon: the run finishes unless the
// twin's makespan estimate (injection span plus backlog drain) exceeds
// MaxSimTime — saturation alone does not cut a packet run short.
func twinOpenLoopCell(network, pattern string, load float64, sc Scale) (Point, error) {
	tc := twin.Config{
		Nodes:          sc.Nodes,
		PacketsPerNode: sc.PacketsPerNode,
		DragonflyP:     sc.DragonflyP,
		FatTreeK:       sc.FatTreeK,
		Seed:           sc.Seed,
	}
	nodes, err := twin.NumNodes(network, tc)
	if err != nil {
		return Point{}, err
	}
	pat, err := patternFor(pattern, nodes, sc)
	if err != nil {
		return Point{}, err
	}
	tp, err := twin.EvalOpenLoop(network, pat, load, tc)
	if err != nil {
		return Point{}, err
	}
	return Point{
		Network:       network,
		Load:          load,
		AvgNS:         tp.AvgNS,
		TailNS:        tp.TailNS,
		DropRate:      tp.DropRate,
		ThroughputPPS: tp.ThroughputPPS,
		Finished:      tp.MakespanS <= sim.Duration(sc.maxSim()).Seconds(),
	}, nil
}

// RunOpenLoop measures one (network, pattern, load) cell.
func RunOpenLoop(network, pattern string, load float64, sc Scale) (Point, error) {
	p, _, _, err := RunOpenLoopDetail(network, pattern, load, sc)
	return p, err
}

// RunOpenLoopDetail is RunOpenLoop plus the run's side outputs: the number
// of lockstep synchronization epochs the sharded engine executed (0 for
// serial and twin-tier runs) and the cell's telemetry layer (nil when
// sc.Telemetry is nil or the network is uninstrumented) — the sampled
// series, flight records and registry totals. Epochs depend on the shard
// count, so they are reported beside the Point rather than inside it, which
// stays bit-identical across shard counts.
func RunOpenLoopDetail(network, pattern string, load float64, sc Scale) (Point, uint64, *telemetry.Telemetry, error) {
	var col netsim.Collector
	p, net, tel, err := runOpenLoopCell(&col, network, pattern, load, sc)
	if err != nil || net == nil {
		return p, 0, tel, err
	}
	return p, netsim.Epochs(net), tel, nil
}

// RunPingPong measures a closed-loop ping-pong workload on one network.
// Ping-pong is packet-only: its closed-loop dependence chain has no
// flow-level analogue in the twin.
func RunPingPong(network, pattern string, sc Scale) (Point, error) {
	if sc.Fidelity == netsim.FidelityTwin {
		return Point{}, fmt.Errorf("exp: ping-pong cells are packet-only (fidelity %q)", sc.Fidelity)
	}
	p, _, _, err := patternCell(nil, network, pattern, sc,
		func() string { return fmt.Sprintf("%s-%s", network, pattern) },
		func(pat *traffic.Pattern) func(netsim.Network) {
			pp := &traffic.PingPong{Pattern: pat, Rounds: sc.PacketsPerNode}
			return pp.Start
		})
	return p, err
}

// renderTable renders rows as a fixed-width text table.
func renderTable(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// CSV renders rows as comma-separated values with a header.
func CSV(header []string, rows [][]string) string {
	var b strings.Builder
	b.WriteString(strings.Join(header, ","))
	b.WriteByte('\n')
	for _, r := range rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

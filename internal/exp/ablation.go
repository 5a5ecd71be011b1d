package exp

import (
	"fmt"

	"baldur/internal/core"
	"baldur/internal/elecnet"
	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/traffic"
)

// Ablations quantify the design decisions Sec II-C/IV argue for, each as a
// paired measurement:
//
//  1. randomized wiring vs. a regular butterfly (the expansion property);
//  2. binary exponential backoff on vs. off under hotspot congestion;
//  3. dragonfly UGAL vs. pure minimal routing on the adversarial pattern
//     (why the baseline is configured adaptively);
//  4. path multiplicity m=1 vs. the design point (Table V's motivation);
//  5. line-rate headroom: 25G -> 400G with unchanged switch latency (the
//     future-work claim of Sec VIII).

// AblationRow is one paired measurement.
type AblationRow struct {
	Name     string
	Variant  string
	MetricA  string
	ValueA   float64
	MetricB  string
	ValueB   float64
	Comments string
}

// ablationSide is one half of a paired ablation: the network it builds,
// the open-loop traffic that network carries, the horizon it runs to (0:
// the scale's safety horizon) and the metric read off the finished run.
type ablationSide struct {
	name    string // telemetry label suffix
	network string // network kind, for audit errors
	build   func() (netsim.Network, error)
	traffic func(netsim.Network) traffic.OpenLoop
	horizon sim.Time
	metric  func(netsim.Network, *netsim.Collector) float64
}

// ablation is one paired measurement: the row it renders (the run fills in
// the values) and its A and B sides.
type ablation struct {
	row   AblationRow
	sides [2]ablationSide
}

// ablations returns the suite at the given scale, in the fixed order above.
func ablations(sc Scale) []ablation {
	baldur := func(cfg core.Config) func() (netsim.Network, error) {
		cfg.Nodes, cfg.Seed, cfg.Shards = sc.Nodes, sc.Seed, sc.Shards
		return func() (netsim.Network, error) { return core.New(cfg) }
	}
	dragonfly := func(routing string) func() (netsim.Network, error) {
		cfg := elecnet.DragonflyConfig{P: sc.DragonflyP, Seed: sc.Seed, Routing: routing, Shards: sc.Shards}
		return func() (netsim.Network, error) { return elecnet.NewDragonfly(cfg) }
	}
	transpose := func(netsim.Network) traffic.OpenLoop {
		return traffic.OpenLoop{
			Pattern: traffic.Transpose(sc.Nodes), Load: 0.7,
			PacketsPerNode: sc.PacketsPerNode, Seed: sc.Seed + 9,
		}
	}
	hotspot := func(netsim.Network) traffic.OpenLoop {
		return traffic.OpenLoop{
			Pattern: traffic.Hotspot(sc.Nodes, 0), Load: 0.7,
			PacketsPerNode: sc.PacketsPerNode / 4, Seed: sc.Seed + 17,
		}
	}
	groupPerm := func(n netsim.Network) traffic.OpenLoop {
		group := 2 * sc.DragonflyP * sc.DragonflyP
		return traffic.OpenLoop{
			Pattern: traffic.GroupPermutation(n.NumNodes(), group, sc.Seed+5),
			Load:    0.7, PacketsPerNode: sc.PacketsPerNode, Seed: sc.Seed + 3,
		}
	}
	randPerm := func(netsim.Network) traffic.OpenLoop {
		return traffic.OpenLoop{
			Pattern: traffic.RandomPermutation(sc.Nodes, sc.Seed+2), Load: 0.5,
			PacketsPerNode: sc.PacketsPerNode, Seed: sc.Seed + 2,
		}
	}
	dropPct := func(n netsim.Network, _ *netsim.Collector) float64 { return n.Counters().DataDropRate() * 100 }
	goodput := func(n netsim.Network, _ *netsim.Collector) float64 { return float64(n.Counters().Delivered) }
	avgNS := func(_ netsim.Network, c *netsim.Collector) float64 { return c.AvgNS() }
	bebHorizon := sim.Time(2 * sim.Millisecond)

	return []ablation{{
		row: AblationRow{
			Name: "wiring", Variant: "random vs regular butterfly",
			MetricA: "random drop%", MetricB: "regular drop%",
			Comments: "transpose @0.7: expansion makes worst-case permutations benign",
		},
		sides: [2]ablationSide{
			{"random", "baldur", baldur(core.Config{Multiplicity: 4, DisableRetransmit: true}), transpose, 0, dropPct},
			{"regular", "baldur", baldur(core.Config{Multiplicity: 4, DisableRetransmit: true, Topology: "butterfly"}), transpose, 0, dropPct},
		},
	}, {
		row: AblationRow{
			Name: "beb", Variant: "backoff on vs off",
			MetricA: "goodput with", MetricB: "goodput without",
			Comments: "hotspot @0.7, 2 ms horizon: BEB prevents congestion collapse",
		},
		sides: [2]ablationSide{
			{"on", "baldur", baldur(core.Config{Multiplicity: 2}), hotspot, bebHorizon, goodput},
			{"off", "baldur", baldur(core.Config{Multiplicity: 2, DisableBEB: true}), hotspot, bebHorizon, goodput},
		},
	}, {
		row: AblationRow{
			Name: "dragonfly-routing", Variant: "ugal vs minimal",
			MetricA: "ugal avg ns", MetricB: "minimal avg ns",
			Comments: "group permutation @0.7: the baseline needs its adaptivity",
		},
		sides: [2]ablationSide{
			{"ugal", "dragonfly", dragonfly("ugal"), groupPerm, 0, avgNS},
			{"minimal", "dragonfly", dragonfly("minimal"), groupPerm, 0, avgNS},
		},
	}, {
		row: AblationRow{
			Name: "multiplicity", Variant: "m=1 vs m=4",
			MetricA: "m1 avg ns", MetricB: "m4 avg ns",
			Comments: "transpose @0.7 with retransmission: drops dominate at m=1",
		},
		sides: [2]ablationSide{
			{"m1", "baldur", baldur(core.Config{Multiplicity: 1}), transpose, 0, avgNS},
			{"m4", "baldur", baldur(core.Config{Multiplicity: 4}), transpose, 0, avgNS},
		},
	}, {
		row: AblationRow{
			Name: "link-rate", Variant: "25G vs 400G",
			MetricA: "avg ns @25G", MetricB: "avg ns @400G",
			Comments: "switching stays 1.5 ns/stage; latency approaches the 200 ns fiber floor",
		},
		sides: [2]ablationSide{
			{"25G", "baldur", baldur(core.Config{LinkRate: 25e9}), randPerm, 0, avgNS},
			{"400G", "baldur", baldur(core.Config{LinkRate: 400e9}), randPerm, 0, avgNS},
		},
	}}
}

// Ablations runs the full suite at the given scale. Its ten sides are
// independent Scale-driven cells (they honour Shards, Warmup, Audit and
// Telemetry), so they fan out through the shared worker pool; the returned
// rows keep the fixed order above.
func Ablations(sc Scale) ([]AblationRow, error) {
	suite := ablations(sc)
	values := make([]float64, 2*len(suite))
	err := runParallel(len(values), sc.workers(), func(i int) error {
		s := &suite[i/2].sides[i%2]
		net, err := s.build()
		if err != nil {
			return err
		}
		label := "ablation-" + suite[i/2].row.Name + "-" + s.name
		col, err := sc.runOpenLoopNet(net, s.network, label, s.traffic(net), s.horizon)
		if err != nil {
			return err
		}
		values[i] = s.metric(net, col)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]AblationRow, len(suite))
	for i, a := range suite {
		rows[i] = a.row
		rows[i].ValueA, rows[i].ValueB = values[2*i], values[2*i+1]
	}
	return rows, nil
}

// RenderAblations formats the suite.
func RenderAblations(rows []AblationRow) string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = []string{
			r.Name, r.Variant,
			fmt.Sprintf("%s=%.2f", r.MetricA, r.ValueA),
			fmt.Sprintf("%s=%.2f", r.MetricB, r.ValueB),
			r.Comments,
		}
	}
	return "Ablations — design-decision deltas\n" + renderTable(
		[]string{"ablation", "variant", "A", "B", "notes"}, out)
}

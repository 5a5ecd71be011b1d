package main

import (
	_ "embed"
	"fmt"
	"strings"
	"time"

	"baldur/internal/check"
	"baldur/internal/check/harness"
	"baldur/internal/core"
	"baldur/internal/dropmodel"
	"baldur/internal/elecnet"
	"baldur/internal/exp"
	"baldur/internal/netsim"
	"baldur/internal/reliability"
	"baldur/internal/sim"
	"baldur/internal/traffic"
	svc "baldur/internal/workload"
)

const (
	// permLoad and permShards are the offered load and shard count of the
	// two permutation cells.
	permLoad   = 0.7
	permShards = 2

	// campaignSeeds is the number of seeds one fault_campaign pass sweeps.
	campaignSeeds = 32
	// setupSamples is how many set-ups a repro_quick or fault_campaign pass
	// times beside its timed section.
	setupSamples = 25
)

// horizon is the safety horizon of a permutation cell: 1 s of virtual time,
// the exp package default.
const horizon = sim.Time(1 * sim.Second)

//go:embed campaign.json
var campaignJSON []byte

// op is the outcome of one operation: a cell, or one experiment of
// repro_quick.
type op struct {
	id     string
	digest string
	err    error // error return, audit violation or safety horizon hit
}

// pass is one execution of a workload.
type pass struct {
	ops []op
	// wall is the host time of the timed section.
	wall float64
	// setup holds host times from the start of a cell to its first event.
	setup []float64
	// packets is the number of unique data packets delivered in the pass.
	packets uint64
	// eventWall is the host time in which layer["sim.events"] events ran.
	eventWall float64
	// layer holds per-layer metrics by name: host seconds of calls into a
	// module (the _s names) and counters read from public state.
	layer map[string]float64
}

func newPass() pass {
	return pass{layer: map[string]float64{}}
}

// workload is one named benchmark input. run executes one pass; shards
// applies to the permutation cells only (the others fix their own).
type workload struct {
	name string
	run  func(seed uint64, shards int) pass
	// sharded marks workloads whose digests must not depend on shards.
	sharded bool
}

var workloads = []workload{
	{name: "baldur_perm_k2", run: baldurPerm.run, sharded: true},
	{name: "fattree_perm_k2", run: fatTreePerm.run, sharded: true},
	{name: "repro_quick", run: func(seed uint64, _ int) pass { return runRepro(seed) }},
	{name: "fault_campaign", run: func(seed uint64, _ int) pass { return runCampaign(seed) }},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// cellSummary is what a user reads from one permutation cell: the exp.Point
// fields other than Events, Baldur's protocol counters, and the harness's
// own delivery tally.
type cellSummary struct {
	Network       string
	Load          float64
	AvgNS         float64
	TailNS        float64
	DropRate      float64
	ThroughputPPS float64
	Finished      bool

	Injected, Delivered, Duplicates, DataAttempts uint64
	DataDrops, AckDrops, Retransmissions, GaveUp  uint64

	Tally deliveryTally
}

// buildSpan names the span around each permutation network's constructor
// after the module that owns it.
var buildSpan = map[string]string{"baldur": "core.build_s", "fattree": "elecnet.build_s"}

// permCell is the shape of an open-loop random-permutation cell.
type permCell struct {
	network  string // baldur or fattree
	nodes    int    // Baldur node count
	fatTreeK int    // fat-tree radix
	packets  int    // packets per node
}

// The two permutation workloads run at the paper's Fig 6 scale: 1,024
// Baldur nodes, and a k=16 fat-tree with 1,024 hosts.
var (
	baldurPerm  = permCell{network: "baldur", nodes: 1024, packets: 200}
	fatTreePerm = permCell{network: "fattree", fatTreeK: 16, packets: 200}
)

// run runs the cell once.
func (c permCell) run(seed uint64, shards int) pass {
	p, _ := c.cell(seed, shards)
	return p
}

// cell runs the cell once the way exp.RunOpenLoop builds it (same seeds,
// same horizon), timing each call from outside, and returns the pass with
// the summary its digest hashes.
func (c permCell) cell(seed uint64, shards int) (pass, cellSummary) {
	p := newPass()
	id := fmt.Sprintf("%s/k%d", c.network, shards)
	fail := func(err error) (pass, cellSummary) {
		p.ops = []op{{id: id, err: err}}
		return p, cellSummary{}
	}
	t0 := time.Now()
	var net netsim.Network
	var bn *core.Network
	switch c.network {
	case "baldur":
		n, err := core.New(core.Config{Nodes: c.nodes, Seed: seed, Shards: shards})
		if err != nil {
			return fail(err)
		}
		net, bn = n, n
	case "fattree":
		n, err := elecnet.NewFatTree(elecnet.FatTreeConfig{K: c.fatTreeK, Shards: shards})
		if err != nil {
			return fail(err)
		}
		net = n
	default:
		return fail(fmt.Errorf("unknown network %q", c.network))
	}
	p.layer[buildSpan[c.network]] = since(t0)
	var col netsim.Collector
	col.Attach(net)
	tally := attachTally(net)
	t1 := time.Now()
	ol := traffic.OpenLoop{
		Pattern:        traffic.RandomPermutation(net.NumNodes(), seed+10),
		Load:           permLoad,
		PacketsPerNode: c.packets,
		Seed:           seed + 100,
	}
	ol.Start(net)
	p.layer["traffic.start_s"] = since(t1)
	p.setup = []float64{since(t0)}

	t2 := time.Now()
	more := netsim.Run(net, horizon)
	p.eventWall = since(t2)
	t3 := time.Now()
	s := cellSummary{Network: c.network, Load: permLoad, AvgNS: col.AvgNS(), TailNS: col.TailNS(), Finished: !more}
	p.layer["netsim.fold_s"] = since(t3)
	p.wall = since(t0)

	if last := col.LastDelivery(); last > 0 {
		s.ThroughputPPS = float64(col.Delivered()) / sim.Duration(last).Seconds()
	}
	s.Tally = tally.total()
	events := float64(netsim.Events(net))
	p.layer["sim.events"] = events
	p.layer["sim.epochs"] = float64(netsim.Epochs(net))
	if bn != nil {
		st := &bn.Stats
		if st.DataAttempts > 0 {
			s.DropRate = float64(st.DataDrops) / float64(st.DataAttempts)
			p.layer["core.delivered_per_attempt"] = float64(st.Delivered) / float64(st.DataAttempts)
		}
		s.Injected, s.Delivered, s.Duplicates, s.DataAttempts = st.Injected, st.Delivered, st.Duplicates, st.DataAttempts
		s.DataDrops, s.AckDrops, s.Retransmissions, s.GaveUp = st.DataDrops, st.AckDrops, st.Retransmissions, st.GaveUp
		p.layer["core.retransmissions"] = float64(st.Retransmissions)
		p.layer["core.ack_drops"] = float64(st.AckDrops)
	} else if s.Tally.Count > 0 {
		p.layer["elecnet.events_per_packet"] = events / float64(s.Tally.Count)
	}
	p.packets = s.Tally.Count

	o := op{id: id, digest: digest(s)}
	want := uint64(c.packets * net.NumNodes())
	switch {
	case more:
		o.err = fmt.Errorf("%s: safety horizon hit", id)
	case s.Tally.Count != want || col.Delivered() != want:
		o.err = fmt.Errorf("%s: delivered %d (tally) / %d (collector), want %d", id, s.Tally.Count, col.Delivered(), want)
	}
	p.ops = []op{o}
	return p, s
}

// reproExperiments is cmd/figures' "-exp all" order.
var reproExperiments = []string{
	"table4", "table5", "fig6", "fig7", "fig8", "fig9", "fig10",
	"dropmodel", "packaging", "awgr", "reliability", "ablation", "profile",
}

// The Monte Carlo decode RenderReliability runs: cmd/figures' trial count
// and the jitter sigma (sqrt(1.53 ps^2)).
const (
	reliabilityTrials  = 200_000
	reliabilitySigmaPS = 1.237
)

// quickScale is the scale cmd/figures uses for "-scale quick -seed seed".
func quickScale(seed uint64) exp.Scale {
	sc, _ := exp.ScaleByName("quick")
	sc.Seed = seed
	return sc
}

// runRepro runs every experiment of "figures -exp all -scale quick" in
// order, each through the exp call cmd/figures makes, and digests the text
// each one prints.
func runRepro(seed uint64) pass {
	p := newPass()
	sc := quickScale(seed)
	for i := 0; i < setupSamples; i++ {
		d, err := quickSetup(sc)
		if err != nil {
			p.ops = []op{{id: "setup", err: err}}
			return p
		}
		p.setup = append(p.setup, d)
	}
	fig6Packets, err := fig6Packets(sc)
	if err != nil {
		p.ops = []op{{id: "fig6", err: err}}
		return p
	}
	start := time.Now()
	for _, name := range reproExperiments {
		t := time.Now()
		text, err := reproExperiment(name, sc, &p)
		p.layer["exp."+name+"_s"] = since(t)
		p.ops = append(p.ops, op{id: name, digest: digest(text), err: err})
	}
	p.wall = since(start)
	// Only the Fig 6 sweep's deliveries can be counted from outside.
	p.packets = fig6Packets
	p.eventWall = p.layer["exp.fig6_s"]
	return p
}

// reproExperiment returns the text cmd/figures prints for one experiment.
func reproExperiment(name string, sc exp.Scale, p *pass) (string, error) {
	switch name {
	case "table4":
		return "Table IV — TL gate device-level results\n" + exp.Table4(), nil
	case "table5":
		rows, err := exp.Table5(sc)
		if err != nil {
			return "", err
		}
		return "Table V — path multiplicity (transpose, load 0.7)\n" + exp.RenderTable5(rows), nil
	case "fig6":
		res, err := exp.Fig6(sc, nil, nil, nil)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		var events uint64
		for _, r := range res {
			b.WriteString(exp.RenderFig6(r))
			b.WriteByte('\n')
			for _, pt := range r.Points {
				events += pt.Events
				if !pt.Finished {
					err = fmt.Errorf("fig6 %s/%s@%.1f: safety horizon hit", pt.Network, r.Pattern, pt.Load)
				}
			}
		}
		p.layer["sim.events"] = float64(events)
		return b.String(), err
	case "fig7":
		rows, err := exp.Fig7(sc, nil)
		if err != nil {
			return "", err
		}
		return exp.RenderFig7(rows, nil), nil
	case "fig8":
		return exp.RenderFig8(), nil
	case "fig9":
		return exp.RenderFig9(), nil
	case "fig10":
		return exp.RenderFig10(), nil
	case "dropmodel":
		return exp.RenderDropModel(nil, sc.Seed)
	case "packaging":
		return exp.RenderPackaging(), nil
	case "awgr":
		return exp.RenderAWGR(), nil
	case "reliability":
		return exp.RenderReliability(reliabilityTrials, sc.Seed), nil
	case "ablation":
		rows, err := exp.Ablations(sc)
		if err != nil {
			return "", err
		}
		return exp.RenderAblations(rows), nil
	case "profile":
		var profiles []exp.LatencyProfile
		for _, net := range exp.NetworkNames {
			pr, err := exp.Profile(net, "random_permutation", 0.7, sc)
			if err != nil {
				return "", err
			}
			profiles = append(profiles, pr)
		}
		return exp.RenderProfiles(profiles), nil
	}
	return "", fmt.Errorf("unknown experiment %q", name)
}

// reproCallSpans times, outside any timed section, the calls inside two
// repro_quick experiments: each dropmodel.Simulate of RenderDropModel's grid
// (summed over m per node count) and RenderReliability's Monte Carlo decode.
func reproCallSpans(seed uint64) (map[string]float64, error) {
	spans := map[string]float64{}
	for _, n := range []int{1 << 10, 1 << 14, 1 << 18} {
		for m := 1; m <= 5; m++ {
			t := time.Now()
			if _, err := dropmodel.Simulate(n, m, dropmodel.RandomPerm, seed); err != nil {
				return nil, err
			}
			spans[fmt.Sprintf("dropmodel.n%d_s", n)] += since(t)
		}
	}
	t := time.Now()
	reliability.MonteCarloDecode(reliabilityTrials, 8, reliabilitySigmaPS/1.4142, seed)
	spans["reliability.montecarlo_s"] = since(t)
	return spans, nil
}

// quickNetworks builds the four event-driven networks at scale sc, as the
// exp package builds them for a cell.
func quickNetworks(sc exp.Scale) ([]netsim.Network, error) {
	b, err := core.New(core.Config{Nodes: sc.Nodes, Seed: sc.Seed, Shards: sc.Shards})
	if err != nil {
		return nil, err
	}
	mb, err := elecnet.NewMultiButterfly(elecnet.MBConfig{Nodes: sc.Nodes, Multiplicity: 4, Seed: sc.Seed, Shards: sc.Shards})
	if err != nil {
		return nil, err
	}
	df, err := elecnet.NewDragonfly(elecnet.DragonflyConfig{P: sc.DragonflyP, Seed: sc.Seed, Shards: sc.Shards})
	if err != nil {
		return nil, err
	}
	ft, err := elecnet.NewFatTree(elecnet.FatTreeConfig{K: sc.FatTreeK, Shards: sc.Shards})
	if err != nil {
		return nil, err
	}
	return []netsim.Network{b, mb, df, ft}, nil
}

// quickSetup times the set-up of one open-loop cell on each event-driven
// network of the quick scale: build, collector, pattern and injection start.
func quickSetup(sc exp.Scale) (float64, error) {
	t := time.Now()
	nets, err := quickNetworks(sc)
	if err != nil {
		return 0, err
	}
	for _, n := range nets {
		var col netsim.Collector
		col.Attach(n)
		ol := traffic.OpenLoop{
			Pattern:        traffic.RandomPermutation(n.NumNodes(), sc.Seed+10),
			Load:           0.7,
			PacketsPerNode: sc.PacketsPerNode,
			Seed:           sc.Seed + 100,
		}
		ol.Start(n)
	}
	return since(t), nil
}

// fig6Packets counts the unique packets the Fig 6 sweep delivers: every
// sending node injects PacketsPerNode packets per cell, and every cell
// drains (checked on each point's Finished flag).
func fig6Packets(sc exp.Scale) (uint64, error) {
	nets, err := quickNetworks(sc)
	if err != nil {
		return 0, err
	}
	nodes := map[string]int{"baldur": sc.Nodes, "ideal": sc.Nodes}
	for i, name := range []string{"baldur", "multibutterfly", "dragonfly", "fattree"} {
		nodes[name] = nets[i].NumNodes()
	}
	group := 2 * sc.DragonflyP * sc.DragonflyP
	var total uint64
	for _, pattern := range exp.Fig6Patterns {
		for _, network := range exp.NetworkNames {
			n, ok := nodes[network]
			if !ok {
				return 0, fmt.Errorf("fig6: no node count for network %q", network)
			}
			var pat *traffic.Pattern
			switch pattern {
			case "random_permutation":
				pat = traffic.RandomPermutation(n, sc.Seed+10)
			case "transpose":
				pat = traffic.Transpose(n)
			case "bisection":
				pat = traffic.Bisection(n, sc.Seed+11)
			case "group_permutation":
				pat = traffic.GroupPermutation(n, group, sc.Seed+12)
			default:
				return 0, fmt.Errorf("fig6: unknown pattern %q", pattern)
			}
			for _, d := range pat.Dest {
				if d != -1 {
					total += uint64(len(exp.Fig6Loads) * sc.PacketsPerNode)
				}
			}
		}
	}
	return total, nil
}

// campaignSpec is the benchmark's campaign with seed-derived seeds: the
// cell seeds and the workload-spec seed are the only inputs seed reaches.
func campaignSpec(seed uint64) (exp.CampaignSpec, error) {
	spec, err := exp.ParseCampaign(campaignJSON)
	if err != nil {
		return spec, err
	}
	spec.Seeds = make([]uint64, campaignSeeds)
	for i := range spec.Seeds {
		spec.Seeds[i] = seed*campaignSeeds + 1 + uint64(i)
	}
	ws := *spec.Workload
	ws.Seed = seed + 1
	spec.Workload = &ws
	return spec, nil
}

// campaignSetup times what a campaign pays before its first cell's first
// event: parsing the spec, then one cell's network build, collector and
// workload attachment for each grid network.
func campaignSetup(seed uint64) (float64, error) {
	t := time.Now()
	spec, err := campaignSpec(seed)
	if err != nil {
		return 0, err
	}
	for _, name := range spec.Grid.Nets {
		cfg := check.FuzzConfig{
			Net: name, NodesExp: spec.Grid.NodesExp[0], LoadPct: spec.Grid.LoadsPct[0],
			PacketsPerNode: spec.Grid.PacketsPerNode, MaxAttempts: spec.MaxAttempts,
			FaultStage: -1, Seed: spec.Seeds[0],
		}.Canon()
		net, _, err := harness.Build(cfg, spec.Grid.Shards[0])
		if err != nil {
			return 0, err
		}
		var col netsim.Collector
		col.Attach(net)
		ws := *spec.Workload
		ws.Seed += spec.Seeds[0]
		drv, err := svc.New(ws)
		if err != nil {
			return 0, err
		}
		if err := drv.Attach(net); err != nil {
			return 0, err
		}
	}
	return since(t), nil
}

// runCampaign runs the benchmark's fault campaign once; each cell is one
// operation, digested from its row of the per-cell report.
func runCampaign(seed uint64) pass {
	p := newPass()
	for i := 0; i < setupSamples; i++ {
		d, err := campaignSetup(seed)
		if err != nil {
			p.ops = []op{{id: "setup", err: err}}
			return p
		}
		p.setup = append(p.setup, d)
	}
	spec, err := campaignSpec(seed)
	if err != nil {
		p.ops = []op{{id: "campaign", err: err}}
		return p
	}
	t := time.Now()
	rep, err := exp.RunCampaign(spec)
	p.wall = since(t)
	p.layer["exp.campaign_s"] = p.wall
	if err != nil {
		p.ops = []op{{id: "campaign", err: err}}
		return p
	}
	rows := strings.Split(strings.TrimSuffix(rep.CSV(), "\n"), "\n")[1:]
	for i := range rep.Cells {
		c := &rep.Cells[i]
		o := op{id: fmt.Sprintf("%s/s%d/%s", c.Net, c.Seed, c.Script), digest: digest(rows[i])}
		switch {
		case len(c.Violations) > 0:
			o.err = fmt.Errorf("%s: %d audit violation(s); first: %s", o.id, len(c.Violations), c.Violations[0].String())
		case c.Checkpoints == 0:
			o.err = fmt.Errorf("%s: auditor executed no checkpoints", o.id)
		case !c.Finished:
			o.err = fmt.Errorf("%s: safety horizon hit", o.id)
		}
		p.ops = append(p.ops, o)
		p.packets += c.Delivered
		p.layer["faults.events_applied"] += float64(c.FaultEvents)
		p.layer["faults.gave_up"] += float64(c.GaveUp)
		p.layer["check.checkpoints"] += float64(c.Checkpoints)
	}
	return p
}

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"baldur/internal/dropmodel"
	"baldur/internal/exp"
)

// Tiny permutation cells: 16 Baldur nodes, a k=4 fat-tree (16 hosts).
var (
	tinyBaldur  = permCell{network: "baldur", nodes: 16, packets: 20}
	tinyFatTree = permCell{network: "fattree", fatTreeK: 4, packets: 20}
)

// heldOutSeed is the reference seed never run while the benchmark was tuned.
const heldOutSeed = 7919

func TestPerturbedReferenceFailsEveryOperation(t *testing.T) {
	p := tinyBaldur.run(3, 2)
	want := digestsOf(p)

	clean := newVerifier(references{"tiny": {"3": want}}, "tiny", 3)
	clean.check(p)
	if clean.failed != 0 || clean.attempted != 1 {
		t.Fatalf("clean reference: %d of %d failed: %v", clean.failed, clean.attempted, clean.firstErr)
	}

	perturbed := append([]string(nil), want...)
	perturbed[0] = "0" + perturbed[0][1:]
	if perturbed[0] == want[0] {
		perturbed[0] = "1" + perturbed[0][1:]
	}
	v := newVerifier(references{"tiny": {"3": perturbed}}, "tiny", 3)
	v.check(p)
	v.check(p)
	if v.attempted != 2 || v.failed != v.attempted {
		t.Fatalf("perturbed reference: %d of %d failed, want error rate 1", v.failed, v.attempted)
	}
}

func TestVerifierWithoutReferenceChecksPassesAgainstFirst(t *testing.T) {
	v := newVerifier(references{}, "tiny", 1)
	if v.committed {
		t.Fatal("empty references reported as committed")
	}
	v.check(pass{ops: []op{{id: "a", digest: "x"}, {id: "b", digest: "y"}}})
	v.check(pass{ops: []op{{id: "a", digest: "x"}, {id: "b", digest: "z"}}})
	if v.attempted != 4 || v.failed != 1 {
		t.Fatalf("got %d of %d failed, want 1 of 4", v.failed, v.attempted)
	}
}

// TestPermCellShardInvariant runs each tiny cell at several shard counts:
// digests must match and the per-shard delivery tally must see every
// packet exactly once (run with -race to check the hook's shard safety).
func TestPermCellShardInvariant(t *testing.T) {
	for _, c := range []permCell{tinyBaldur, tinyFatTree} {
		var first string
		for _, k := range []int{1, 2, 3} {
			p, s := c.cell(5, k)
			if err := p.ops[0].err; err != nil {
				t.Fatalf("%s K=%d: %v", c.network, k, err)
			}
			if want := uint64(16 * c.packets); s.Tally.Count != want || p.packets != want {
				t.Fatalf("%s K=%d: tally %d, packets %d, want %d", c.network, k, s.Tally.Count, p.packets, want)
			}
			if k == 1 {
				first = p.ops[0].digest
			} else if d := p.ops[0].digest; d != first {
				t.Fatalf("%s: K=%d digest %s differs from K=1 %s", c.network, k, d, first)
			}
		}
	}
}

// TestPermCellMatchesExp checks that the harness builds the cell exactly as
// exp.RunOpenLoop does: every Point field but Events must agree.
func TestPermCellMatchesExp(t *testing.T) {
	sc := exp.Scale{Nodes: 16, FatTreeK: 4, PacketsPerNode: 20, Seed: 9, Shards: 2}
	for _, c := range []permCell{tinyBaldur, tinyFatTree} {
		_, s := c.cell(sc.Seed, sc.Shards)
		pt, err := exp.RunOpenLoop(c.network, "random_permutation", permLoad, sc)
		if err != nil {
			t.Fatal(err)
		}
		got := exp.Point{Network: s.Network, Load: s.Load, AvgNS: s.AvgNS, TailNS: s.TailNS,
			DropRate: s.DropRate, ThroughputPPS: s.ThroughputPPS, Finished: s.Finished}
		pt.Events = 0
		if got != pt {
			t.Fatalf("%s: harness %+v, exp %+v", c.network, got, pt)
		}
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"baldur/internal/core.(*Network).traverse":       "core",
		"baldur/internal/check/harness.Build":            "check",
		"baldur/internal/workload/admission.(*tb).Admit": "workload",
		"baldur/internal/exp.Fig6.func1":                 "exp",
		"sort.Slice":                                     "",
		"main.main":                                      "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestFoldProfile profiles dropmodel work and checks the fold attributes it
// (including the sort calls dropmodel makes) to dropmodel.
func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		if _, err := dropmodel.Simulate(1<<12, 3, dropmodel.RandomPerm, 1); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	fold, total, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, n := range fold {
		sum += n
	}
	if total == 0 || sum != total {
		t.Fatalf("fold sums to %d of %d samples", sum, total)
	}
	if fold["dropmodel"] == 0 {
		t.Fatalf("no samples attributed to dropmodel: %v", fold)
	}
}

// TestTracedRunEmitsEveryLayerMetric drives the traced run on a tiny cell.
func TestTracedRunEmitsEveryLayerMetric(t *testing.T) {
	w := workload{name: "tiny", run: tinyBaldur.run, sharded: true}
	v := newVerifier(references{}, w.name, 2)
	m, err := tracedRun(w, 2, 0.6, v)
	if err != nil {
		t.Fatal(err)
	}
	if v.failed != 0 {
		t.Fatalf("%d of %d operations failed: %v", v.failed, v.attempted, v.firstErr)
	}
	if len(m) != len(layerUnits) {
		t.Fatalf("%d metrics, want %d", len(m), len(layerUnits))
	}
	var shares float64
	for name, unit := range layerUnits {
		got, ok := m[name]
		if !ok || got.Unit != unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Fatalf("metric %s = %+v (present %v), want unit %s", name, got, ok, unit)
		}
		if strings.HasSuffix(name, ".share") {
			shares += got.Value
		}
	}
	if math.Abs(shares-1) > 1e-9 {
		t.Fatalf("shares sum to %v, want 1", shares)
	}
	if m["sim.events"].Value == 0 || m["sim.parallel_efficiency"].Value == 0 {
		t.Fatalf("sim counters not read: %+v %+v", m["sim.events"], m["sim.parallel_efficiency"])
	}
}

func TestCampaignSeedsAndSetup(t *testing.T) {
	spec, err := campaignSpec(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Seeds) != campaignSeeds || spec.Seeds[0] != 4*campaignSeeds+1 || spec.Workload.Seed != 5 {
		t.Fatalf("seeds %v, workload seed %d", spec.Seeds, spec.Workload.Seed)
	}
	if _, err := campaignSetup(4); err != nil {
		t.Fatal(err)
	}
}

// TestReferencesCoverDefaultAndHeldOutSeeds checks the committed digests:
// the default seed and the held-out seed exist for every workload, with one
// digest per operation of a pass.
func TestReferencesCoverDefaultAndHeldOutSeeds(t *testing.T) {
	refs, err := loadReferences(referenceJSON)
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]int{
		"baldur_perm_k2":  1,
		"fattree_perm_k2": 1,
		"repro_quick":     len(reproExperiments),
		"fault_campaign":  2 * campaignSeeds * 3,
	}
	for _, w := range workloads {
		for _, seed := range []uint64{1, heldOutSeed} {
			if got := len(refs.lookup(w.name, seed)); got != ops[w.name] {
				t.Errorf("%s seed %s: %d digests, want %d", w.name, strconv.FormatUint(seed, 10), got, ops[w.name])
			}
		}
	}
}

// TestBenchmarkJSONMatchesMetrics checks that the repository's
// BENCHMARK.json declares exactly the metrics the harness emits.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	w := workload{name: "tiny", run: tinyFatTree.run, sharded: true}
	e2e := endToEnd(w, 1, 0.1, newVerifier(references{}, w.name, 1))
	for _, set := range []struct {
		declared []struct{ Name, Unit string }
		emitted  map[string]string
	}{
		{spec.EndToEnd, unitsOf(e2e)},
		{spec.PerLayer, layerUnits},
	} {
		if len(set.declared) != len(set.emitted) {
			t.Errorf("%d metrics declared, %d emitted", len(set.declared), len(set.emitted))
		}
		for _, m := range set.declared {
			if unit, ok := set.emitted[m.Name]; !ok || unit != m.Unit {
				t.Errorf("metric %s (%s) declared; harness emits unit %q (present %v)", m.Name, m.Unit, unit, ok)
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d in the harness", len(spec.Workloads), len(workloads))
	}
	for _, dw := range spec.Workloads {
		if _, ok := workloadByName(dw.Name); !ok {
			t.Errorf("declared workload %s is not in the harness", dw.Name)
		}
	}
}

func unitsOf(m map[string]metric) map[string]string {
	u := make(map[string]string, len(m))
	for name, v := range m {
		u[name] = v.Unit
	}
	return u
}

package exp

import (
	"os"
	"strings"
	"testing"

	"baldur/internal/faults"
)

// flapScript is the active-fault script the invariance tests drive: a
// stage-0/router-0 kill-restore cycle overlapping the injection window.
func flapScript() faults.ScriptSpec {
	return faults.ScriptSpec{
		Name: "flap",
		Flaps: []faults.FlapSpec{{
			Target:   faults.TargetSpec{Kind: "switch", A: 0, B: 0},
			StartUS:  0.4,
			PeriodUS: 1.6,
			Duty:     0.5,
			Count:    4,
		}},
	}
}

// TestCampaignFlapShardInvariance is the tentpole determinism guarantee with
// faults active: the same flap script on baldur and dragonfly must produce
// bit-identical stats for K in {1,2,4} with audits on. RunCampaign enforces
// the fingerprint comparison itself and fails on any divergence.
func TestCampaignFlapShardInvariance(t *testing.T) {
	spec := CampaignSpec{
		Name: "flap-invariance",
		Grid: CampaignGrid{
			Nets:           []string{"baldur", "dragonfly"},
			NodesExp:       []int{3},
			LoadsPct:       []int{50},
			PacketsPerNode: 12,
			Shards:         []int{1, 2, 4},
		},
		Seeds:       []uint64{1, 2},
		HorizonUS:   500,
		SliceUS:     0.5,
		Audit:       true,
		MaxAttempts: 16,
		Scripts:     []faults.ScriptSpec{flapScript()},
	}
	rep, err := RunCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Error(err)
	}
	var faulted uint64
	for i := range rep.Cells {
		c := &rep.Cells[i]
		if c.Script == BaselineScript {
			continue
		}
		faulted += c.FaultDrops + c.Dropped
		if !c.Finished {
			t.Errorf("cell %s/%s K=%d seed=%d did not drain", c.Net, c.Script, c.Shards, c.Seed)
		}
	}
	if faulted == 0 {
		t.Error("construction broke: the flap script faulted no traffic on any cell")
	}
}

// TestCampaignKillRestoreAuditClean drives a full kill -> dead window ->
// restore cycle on every network with the auditor attached: teardown must
// leave no leaked packet states, no unbalanced pools, and (at drain) fully
// restocked credit vectors on the electrical networks.
func TestCampaignKillRestoreAuditClean(t *testing.T) {
	spec := CampaignSpec{
		Name: "kill-restore",
		Grid: CampaignGrid{
			Nets:           []string{"baldur", "multibutterfly", "dragonfly", "fattree"},
			NodesExp:       []int{3},
			LoadsPct:       []int{70},
			PacketsPerNode: 12,
			Shards:         []int{1, 2},
		},
		Seeds:       []uint64{1},
		HorizonUS:   500,
		SliceUS:     0.5,
		Audit:       true,
		MaxAttempts: 16,
		Scripts: []faults.ScriptSpec{{
			Name: "kill-restore",
			Events: []faults.EventSpec{
				{AtUS: 0.3, Action: "kill", Target: faults.TargetSpec{Kind: "switch", A: 0, B: 0}},
				{AtUS: 3, Action: "restore", Target: faults.TargetSpec{Kind: "switch", A: 0, B: 0}},
			},
		}},
	}
	rep, err := RunCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Error(err)
	}
	for i := range rep.Cells {
		c := &rep.Cells[i]
		if c.Checkpoints == 0 {
			t.Errorf("cell %s/%s K=%d ran no audit checkpoints", c.Net, c.Script, c.Shards)
		}
	}
}

// TestCampaignRestorationRestoresDelivery: on baldur with unlimited attempts,
// a kill-restore cycle must not lose a single packet — the reliability
// protocol retries through the dead window and completes after restoration.
func TestCampaignRestorationRestoresDelivery(t *testing.T) {
	spec := CampaignSpec{
		Name: "restore-delivery",
		Grid: CampaignGrid{
			Nets:           []string{"baldur"},
			NodesExp:       []int{3},
			LoadsPct:       []int{50},
			PacketsPerNode: 12,
			Shards:         []int{1, 2},
		},
		Seeds:     []uint64{1, 2},
		HorizonUS: 500,
		SliceUS:   0.5,
		Audit:     true,
		// MaxAttempts 0: unlimited — delivery must be total.
		Scripts: []faults.ScriptSpec{{
			Name: "kill-restore",
			Events: []faults.EventSpec{
				{AtUS: 0.3, Action: "kill", Target: faults.TargetSpec{Kind: "switch", A: 0, B: 0}},
				{AtUS: 5, Action: "restore", Target: faults.TargetSpec{Kind: "switch", A: 0, B: 0}},
			},
		}},
	}
	rep, err := RunCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Error(err)
	}
	var sawFaults bool
	for i := range rep.Cells {
		c := &rep.Cells[i]
		if c.DeliveredFrac != 1 || c.GaveUp != 0 {
			t.Errorf("cell %s K=%d seed=%d: deliveredFrac=%v gaveUp=%d, want total delivery",
				c.Script, c.Shards, c.Seed, c.DeliveredFrac, c.GaveUp)
		}
		if !c.Finished {
			t.Errorf("cell %s K=%d seed=%d did not drain after restoration", c.Script, c.Shards, c.Seed)
		}
		if c.Script != BaselineScript && c.FaultDrops > 0 {
			sawFaults = true
		}
	}
	if !sawFaults {
		t.Error("construction broke: the dead window faulted no transmissions")
	}
}

// TestCampaignExampleSpec keeps the committed example campaign loadable and
// structurally sound without running all of it in the test suite (CI runs it
// through cmd/campaign).
func TestCampaignExampleSpec(t *testing.T) {
	data, err := os.ReadFile("../../examples/campaigns/smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseCampaign(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Scripts) < 3 {
		t.Errorf("example campaign has %d scripts, want >= 3", len(spec.Scripts))
	}
	if len(spec.Grid.Nets) < 2 || len(spec.Seeds) < 2 {
		t.Errorf("example campaign spans %d nets x %d seeds, want >= 2 x 2", len(spec.Grid.Nets), len(spec.Seeds))
	}
	if !spec.Audit {
		t.Error("example campaign must run with audits on")
	}
	for _, s := range spec.Scripts {
		if _, err := s.Compile(1); err != nil {
			t.Errorf("script %q does not compile: %v", s.Name, err)
		}
	}
}

// TestCampaignRejectsNegativeSlice checks a negative slice width is refused
// up front: driven as is, every barrier would step backwards in virtual time
// and the campaign would never return.
func TestCampaignRejectsNegativeSlice(t *testing.T) {
	spec, err := ParseCampaign([]byte(`{"name":"neg","grid":{"nets":["baldur"],"nodes_exp":[3],"packets_per_node":4},"slice_us":-1,"scripts":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunCampaign(spec)
	if err == nil || !strings.Contains(err.Error(), "slice_us") {
		t.Fatalf("RunCampaign error = %v, want one naming slice_us", err)
	}
}

// TestCampaignReportRendering checks the CSV and table renderers emit one
// row per cell / aggregate with the availability columns present.
func TestCampaignReportRendering(t *testing.T) {
	spec := CampaignSpec{
		Name: "render",
		Grid: CampaignGrid{
			Nets: []string{"baldur"}, NodesExp: []int{2}, LoadsPct: []int{50},
			PacketsPerNode: 4, Shards: []int{1},
		},
		Seeds: []uint64{1, 2}, HorizonUS: 200, Audit: true, MaxAttempts: 8,
		Scripts: []faults.ScriptSpec{flapScript()},
	}
	rep, err := RunCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	csv := rep.CSV()
	if got := strings.Count(csv, "\n"); got != len(rep.Cells)+1 {
		t.Errorf("cell CSV has %d lines, want %d cells + header", got, len(rep.Cells))
	}
	for _, col := range []string{"delivered_frac", "unavail_us", "tail_inflation", "retx_amp"} {
		if !strings.Contains(csv, col) {
			t.Errorf("cell CSV missing column %q", col)
		}
	}
	aggs := rep.Aggregates()
	// One aggregate per script (baseline + flap) at a single grid point.
	if len(aggs) != 2 {
		t.Fatalf("%d aggregate rows, want 2", len(aggs))
	}
	for _, a := range aggs {
		if a.Seeds != 2 {
			t.Errorf("aggregate %s folded %d seeds, want 2", a.Script, a.Seeds)
		}
	}
	if tbl := rep.Table(); !strings.Contains(tbl, "deliv_frac") || !strings.Contains(tbl, BaselineScript) {
		t.Errorf("table rendering incomplete:\n%s", tbl)
	}
}

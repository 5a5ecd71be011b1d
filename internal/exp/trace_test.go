package exp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"baldur/internal/check"
	"baldur/internal/check/harness"
	"baldur/internal/faults"
	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/telemetry"
	"baldur/internal/traffic"
)

// runTraceCell runs one lifecycle-traced cell of any network. The rings are
// sized to never wrap (a wrapped ring keeps per-shard suffixes, which
// legitimately differ across shard layouts) and the auditor is attached, so
// runOpenLoopCell's built-in span audit enforces the attribution invariant
// on every traced delivery.
func runTraceCell(t *testing.T, network, pattern string, load float64, shards, every int) *telemetry.Telemetry {
	t.Helper()
	sc := Quick
	sc.Shards = shards
	sc.Telemetry = &telemetry.Options{FlightRecords: 1 << 17, TraceSample: every}
	sc.Audit = &check.Options{}
	var col netsim.Collector
	_, _, tel, err := runOpenLoopCell(&col, network, pattern, load, sc)
	if err != nil {
		t.Fatalf("%s/%s K=%d: %v", network, pattern, shards, err)
	}
	if tel == nil {
		t.Fatalf("%s/%s K=%d: telemetry layer not attached", network, pattern, shards)
	}
	if tel.Rec.Overwritten() > 0 {
		t.Fatalf("%s/%s K=%d: flight recorder wrapped; raise FlightRecords", network, pattern, shards)
	}
	return tel
}

// TestTraceStreamShardCountInvariant checks the acceptance criterion: the
// traced-packet set and the exported span stream are bit-identical for
// K ∈ {1, 2, 4}, on both the Baldur model and a buffered electrical model
// (dragonfly), because sampling hashes only the shard-layout-independent
// packet id and spans carry virtual times.
func TestTraceStreamShardCountInvariant(t *testing.T) {
	for _, network := range []string{"baldur", "dragonfly"} {
		var base string
		for _, k := range []int{1, 2, 4} {
			tel := runTraceCell(t, network, "random_permutation", 0.5, k, 2)
			recs := tel.Rec.Records()
			spans := 0
			for i := range recs {
				if recs[i].Kind == telemetry.KindSpan {
					spans++
				}
			}
			if spans == 0 {
				t.Fatalf("%s K=%d: no span records captured", network, k)
			}
			var sb strings.Builder
			if err := telemetry.WriteFlightCSV(&sb, recs, 1); err != nil {
				t.Fatal(err)
			}
			if k == 1 {
				base = sb.String()
				continue
			}
			if sb.String() != base {
				t.Errorf("%s: exported span stream differs between K=1 and K=%d", network, k)
			}
		}
	}
}

// TestTraceChainsTileLatencyAcrossModels drives every instrumented network
// model with full sampling and checks each complete chain offline: the
// pre-delivery spans tile [inject, deliver) exactly, so span durations sum
// to the packet's end-to-end latency. (The in-run SpanAudit enforces the
// same invariant against the Stats-witnessed deliveries; this test exercises
// the offline reconstruction path that cmd/tracequery uses.)
func TestTraceChainsTileLatencyAcrossModels(t *testing.T) {
	for _, network := range []string{"baldur", "multibutterfly", "dragonfly", "fattree"} {
		tel := runTraceCell(t, network, "transpose", 0.7, 2, 1)
		chains := telemetry.AssembleChains(tel.Rec.Records())
		complete := 0
		for i := range chains {
			c := &chains[i]
			if !c.Complete() {
				continue
			}
			complete++
			if msg := c.CheckTiling(); msg != "" {
				t.Fatalf("%s pkt %d: %s", network, c.Pkt, msg)
			}
			if c.SpanSum() != c.Latency() {
				t.Fatalf("%s pkt %d: span sum %d != latency %d",
					network, c.Pkt, int64(c.SpanSum()), int64(c.Latency()))
			}
		}
		if complete == 0 {
			t.Fatalf("%s: no complete chains assembled", network)
		}
		rows, total := telemetry.Breakdown(chains)
		if len(rows) == 0 || total == 0 {
			t.Fatalf("%s: empty phase breakdown", network)
		}
	}
}

// TestTraceAuditUnderFaultsWithRetransmissions runs the span audit through a
// scripted fault campaign cell: a flapping first-stage switch forces
// timeouts and retransmissions, so traced chains carry retx_wait and backoff
// spans plus excluded late-attempt spans — and the tiling invariant must
// still hold exactly on every witnessed delivery.
func TestTraceAuditUnderFaultsWithRetransmissions(t *testing.T) {
	script, err := faults.ScriptSpec{
		Name: "flap",
		Flaps: []faults.FlapSpec{{
			Target:   faults.TargetSpec{Kind: "switch", A: 0, B: 0},
			StartUS:  0.4,
			PeriodUS: 1.6,
			Duty:     0.5,
			Count:    4,
		}},
	}.Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := check.FuzzConfig{
		Net: "baldur", NodesExp: 3, LoadPct: 70,
		PacketsPerNode: 16, MaxAttempts: 16, FaultStage: -1, Seed: 1,
	}.Canon()
	net, read, err := harness.Build(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New(telemetry.Options{FlightRecords: 1 << 17, TraceSample: 1}, netsim.NumShards(net))
	net.(netsim.Instrumented).AttachTelemetry(tel)
	aud := check.New(check.Options{})
	net.(netsim.Audited).AttachAudit(aud)
	spans := netsim.AttachSpanAudit(net)
	ol := traffic.OpenLoop{
		Pattern:        traffic.RandomPermutation(net.NumNodes(), cfg.Seed+10),
		Load:           float64(cfg.LoadPct) / 100,
		PacketsPerNode: cfg.PacketsPerNode,
		Seed:           cfg.Seed + 100,
	}
	ol.Start(net)
	ctrl := faults.NewController(script)
	if _, err := netsim.Drive(net, sim.Time(0).Add(sim.Microseconds(500)), netsim.DriveOptions{
		Tel:    tel,
		Aud:    aud,
		Script: ctrl,
	}); err != nil {
		t.Fatal(err)
	}
	fp := read()
	if fp.Retransmissions == 0 {
		t.Fatal("fault script induced no retransmissions; audit untested under retx")
	}
	if spans.Witnessed() == 0 {
		t.Fatal("span audit witnessed no traced deliveries")
	}
	if tel.Rec.Overwritten() > 0 {
		t.Fatal("flight recorder wrapped; raise FlightRecords so the audit sees full chains")
	}
	spans.VerifyInto(aud, tel.Rec.Records(), false)
	if err := aud.Err(); err != nil {
		t.Fatalf("span audit failed under faults: %v", err)
	}
	// Retransmissions must surface as excluded late-attempt spans somewhere.
	chains := telemetry.AssembleChains(tel.Rec.Records())
	excluded := 0
	for i := range chains {
		excluded += chains[i].Excluded
	}
	if excluded == 0 {
		t.Error("no late-retransmission spans were excluded; f0 cut untested")
	}
}

// TestCampaignCellTraceExport runs a traced fault campaign and checks the
// per-cell Perfetto files: one per cell, each valid JSON, with the script's
// fault events as instants, lifecycle span slices, and one shaded region on
// the availability track per measured unavailability window.
func TestCampaignCellTraceExport(t *testing.T) {
	dir := t.TempDir()
	spec := CampaignSpec{
		Name: "trace-export",
		Grid: CampaignGrid{
			Nets: []string{"baldur"}, NodesExp: []int{3}, LoadsPct: []int{70},
			PacketsPerNode: 16, Shards: []int{2},
		},
		Seeds: []uint64{1}, HorizonUS: 500, SliceUS: 0.5,
		Audit: true, MaxAttempts: 16,
		TraceDir: dir, TraceSample: 1,
		Scripts: []faults.ScriptSpec{flapScript()},
	}
	rep, err := RunCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Error(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("campaign ran %d cells, want baseline + flap", len(rep.Cells))
	}
	for i := range rep.Cells {
		c := &rep.Cells[i]
		path := filepath.Join(dir, strings.ReplaceAll(c.id(), "/", "-")+".json")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("cell %s: missing trace file: %v", c.id(), err)
		}
		var doc struct {
			TraceEvents []map[string]interface{} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("cell %s: trace is not valid JSON: %v", c.id(), err)
		}
		faultEvents, spanSlices, regionSlices := 0, 0, 0
		for _, ev := range doc.TraceEvents {
			name, _ := ev["name"].(string)
			args, _ := ev["args"].(map[string]interface{})
			switch {
			case name == "fault":
				faultEvents++
			case name == "unavailable":
				regionSlices++
			case args != nil && args["phase"] != nil:
				spanSlices++
			}
		}
		if spanSlices == 0 {
			t.Errorf("cell %s: trace has no lifecycle span slices", c.id())
		}
		if regionSlices != c.UnavailWindows {
			t.Errorf("cell %s: trace shows %d unavailability regions, cell measured %d",
				c.id(), regionSlices, c.UnavailWindows)
		}
		if c.Script == BaselineScript {
			if faultEvents != 0 {
				t.Errorf("baseline trace has %d fault instants, want 0", faultEvents)
			}
			continue
		}
		if faultEvents != c.FaultEvents {
			t.Errorf("cell %s: trace has %d fault instants, controller applied %d",
				c.id(), faultEvents, c.FaultEvents)
		}
		if c.UnavailWindows == 0 {
			t.Errorf("cell %s: flap produced no unavailability windows; region path untested", c.id())
		}
	}
}

package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"baldur/internal/core"
	"baldur/internal/netsim"
	"baldur/internal/telemetry"
)

// runTelemetryCell runs one telemetry-enabled Baldur cell and returns the
// point, the network (for its model statistics), its telemetry layer, and
// the collector.
func runTelemetryCell(t *testing.T, pattern string, load float64, shards int, opts telemetry.Options) (Point, *core.Network, *telemetry.Telemetry, *netsim.Collector) {
	t.Helper()
	sc := Quick
	sc.Shards = shards
	sc.Telemetry = &opts
	var col netsim.Collector
	p, net, tel, err := runOpenLoopCell(&col, "baldur", pattern, load, sc)
	if err != nil {
		t.Fatal(err)
	}
	bn, ok := net.(*core.Network)
	if !ok {
		t.Fatalf("baldur cell returned %T", net)
	}
	if tel == nil {
		t.Fatal("telemetry layer not attached")
	}
	return p, bn, tel, &col
}

// TestTelemetryCountersMatchRunStatistics checks the tentpole accounting
// invariant: for every ledger counter a network registers, summing the
// sampled per-interval deltas — and the registry total — reproduces the
// end-of-run ledger exactly. Baldur's random_permutation at 0.5 drops
// packets in the seeded Quick run, exercising the drop counters with nonzero
// values; the fat-tree cell runs sharded, so its ledger is read from two
// shards' slots.
func TestTelemetryCountersMatchRunStatistics(t *testing.T) {
	ledger := map[string]func(netsim.Counters) uint64{
		"injected":        func(c netsim.Counters) uint64 { return c.Injected },
		"delivered":       func(c netsim.Counters) uint64 { return c.Delivered },
		"duplicates":      func(c netsim.Counters) uint64 { return c.Duplicates },
		"data_attempts":   func(c netsim.Counters) uint64 { return c.DataAttempts },
		"data_drops":      func(c netsim.Counters) uint64 { return c.DataDrops },
		"ack_attempts":    func(c netsim.Counters) uint64 { return c.AckAttempts },
		"ack_drops":       func(c netsim.Counters) uint64 { return c.AckDrops },
		"retransmissions": func(c netsim.Counters) uint64 { return c.Retransmissions },
		"dropped":         func(c netsim.Counters) uint64 { return c.Dropped },
	}
	for _, tc := range []struct {
		network string
		shards  int
		names   []string
	}{
		{"baldur", 1, []string{"injected", "delivered", "duplicates", "data_attempts",
			"data_drops", "ack_attempts", "ack_drops", "retransmissions"}},
		{"fattree", 2, []string{"injected", "delivered", "dropped"}},
	} {
		t.Run(tc.network, func(t *testing.T) {
			sc := Quick
			sc.Shards = tc.shards
			sc.Telemetry = &telemetry.Options{}
			var col netsim.Collector
			_, net, tel, err := runOpenLoopCell(&col, tc.network, "random_permutation", 0.5, sc)
			if err != nil {
				t.Fatal(err)
			}
			if got := netsim.NumShards(net); got != tc.shards {
				t.Fatalf("ran on %d shards, want %d", got, tc.shards)
			}
			want := net.Counters()
			for name := range ledger {
				if tel.Reg.Index(name) >= 0 && !slices.Contains(tc.names, name) {
					t.Errorf("unexpected ledger counter %q registered", name)
				}
			}
			for _, name := range tc.names {
				id := tel.Reg.Index(name)
				if id < 0 {
					t.Fatalf("counter %q not registered", name)
				}
				var sum uint64
				for _, sm := range tel.Sampler.Samples {
					sum += sm.Values[id]
				}
				if w := ledger[name](want); sum != w {
					t.Errorf("summed %s deltas = %d, want ledger total %d", name, sum, w)
				}
				if got, w := tel.Reg.Total(name), ledger[name](want); got != w {
					t.Errorf("registry total %s = %d, want %d", name, got, w)
				}
			}
			if want.Injected == 0 {
				t.Error("seeded run injected nothing")
			}
			if tc.network == "baldur" && want.DataDrops == 0 {
				t.Error("seeded run produced no drops; drop accounting untested")
			}
			if got := tel.Reg.Total("delivered"); got != col.Delivered() {
				t.Errorf("delivered counter %d != collector %d", got, col.Delivered())
			}
		})
	}
}

// TestTelemetrySeriesIsShardCountInvariant checks the acceptance criterion:
// the sampled metric series of the Fig 6 Baldur transpose cell at load 0.7
// is bit-identical for K=1 and K=4, excluding the Epochs column (barrier
// rounds are execution telemetry and inherently depend on K).
func TestTelemetrySeriesIsShardCountInvariant(t *testing.T) {
	// Size the rings so they never wrap: a wrapped ring keeps each shard's
	// most recent window, which legitimately differs across shard layouts.
	opts := telemetry.Options{FlightRecords: 1 << 17}
	p1, _, tel1, _ := runTelemetryCell(t, "transpose", 0.7, 1, opts)
	p4, _, tel4, _ := runTelemetryCell(t, "transpose", 0.7, 4, opts)
	if p1 != p4 {
		t.Fatalf("points differ across shard counts:\nK=1 %+v\nK=4 %+v", p1, p4)
	}
	a, b := tel1.Sampler.Samples, tel4.Sampler.Samples
	if len(a) != len(b) {
		t.Fatalf("sample counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].At != b[i].At || a[i].Events != b[i].Events {
			t.Errorf("sample %d header differs: K=1 {at=%d ev=%d} K=4 {at=%d ev=%d}",
				i, a[i].At, a[i].Events, b[i].At, b[i].Events)
		}
		for j := range a[i].Values {
			if a[i].Values[j] != b[i].Values[j] {
				t.Errorf("sample %d metric %s differs: K=1 %d K=4 %d",
					i, tel1.Reg.Names()[j], a[i].Values[j], b[i].Values[j])
			}
		}
	}
	// The flight-record streams must also merge to the same export.
	r1, r4 := tel1.Rec.Records(), tel4.Rec.Records()
	if len(r1) != len(r4) {
		t.Fatalf("flight record counts differ: %d vs %d", len(r1), len(r4))
	}
	for i := range r1 {
		if r1[i] != r4[i] {
			t.Fatalf("flight record %d differs: K=1 %+v K=4 %+v", i, r1[i], r4[i])
		}
	}
	// Epochs are the one K-dependent column: zero when serial, positive when
	// sharded.
	var e1, e4 uint64
	for i := range a {
		e1 += a[i].Epochs
		e4 += b[i].Epochs
	}
	if e1 != 0 {
		t.Errorf("serial run reported %d epochs, want 0", e1)
	}
	if e4 == 0 {
		t.Error("K=4 run reported no epochs")
	}
}

// TestTelemetryFileOutputs drives the full export path: the Chrome trace
// must be valid JSON (Perfetto-loadable) and the metrics CSV's delivered
// column must sum to the run total.
func TestTelemetryFileOutputs(t *testing.T) {
	dir := t.TempDir()
	traceOut := filepath.Join(dir, "trace.json")
	metricsOut := filepath.Join(dir, "metrics.csv")
	_, net, _, _ := runTelemetryCell(t, "transpose", 0.7, 0, telemetry.Options{
		TraceOut:   traceOut,
		MetricsOut: metricsOut,
	})
	raw, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	kinds := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if name, ok := ev["name"].(string); ok {
			kinds[name] = true
		}
	}
	for _, want := range []string{"inject", "deliver", "process_name"} {
		if !kinds[want] {
			t.Errorf("trace missing %q events", want)
		}
	}
	csv, err := os.ReadFile(metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	sums, err := sumCSVColumns(string(csv))
	if err != nil {
		t.Fatal(err)
	}
	if sums["delivered"] != net.Stats.Delivered {
		t.Errorf("CSV delivered sum = %d, want %d", sums["delivered"], net.Stats.Delivered)
	}
	if sums["injected"] != net.Stats.Injected {
		t.Errorf("CSV injected sum = %d, want %d", sums["injected"], net.Stats.Injected)
	}
}

// TestTable5WritesPerCellMetrics checks Table V honours the telemetry
// options: with per-cell tagging, each multiplicity exports its own metrics
// file.
func TestTable5WritesPerCellMetrics(t *testing.T) {
	dir := t.TempDir()
	sc := Quick
	sc.PacketsPerNode = 10
	sc.Telemetry = &telemetry.Options{MetricsOut: filepath.Join(dir, "m.csv")}
	sc.TelemetryPerCell = true
	if _, err := Table5(sc); err != nil {
		t.Fatal(err)
	}
	for m := 1; m <= 5; m++ {
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("m-table5-m%d.csv", m))); err != nil {
			t.Errorf("m=%d: %v", m, err)
		}
	}
}

// sumCSVColumns sums every numeric column of a header-led CSV by name.
func sumCSVColumns(data string) (map[string]uint64, error) {
	lines := strings.Split(strings.TrimSpace(data), "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("CSV has no data rows")
	}
	names := strings.Split(lines[0], ",")
	sums := make(map[string]uint64, len(names))
	for _, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != len(names) {
			return nil, fmt.Errorf("row has %d fields, header has %d", len(fields), len(names))
		}
		for i, f := range fields {
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				continue // at_ps may be fractional for gatesim exports
			}
			sums[names[i]] += v
		}
	}
	return sums, nil
}

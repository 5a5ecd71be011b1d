package gatesim

import (
	"strings"
	"testing"

	"baldur/internal/sim"
	"baldur/internal/telemetry"
)

// TestCircuitTelemetry runs an inverter with the observability layer
// attached: the transitions counter must match the probe's edge count, the
// flight ring must carry one level record per transition, and the sampled
// export must scale femtosecond ticks to picoseconds.
func TestCircuitTelemetry(t *testing.T) {
	c := New(Config{})
	in := c.NewNode("in")
	out := c.Not(in, "out")
	probe := c.Probe(out)
	tel := telemetry.New(telemetry.Options{
		SampleInterval: sim.Duration(20000), // 20000 fs slices
		TickPS:         0.001,
	}, 1)
	c.AttachTelemetry(tel)
	c.PlaySignal(in, pulseAt(10000, 5000))
	c.RunSliced(100000, tel, nil)

	// The input's 2 edges plus the output's fall and rise. The output's
	// initial dark→high transition happens at construction time, before
	// telemetry attached, so it is probe-visible but not counted.
	wantTransitions := uint64(len(probe.Edges()) - 1 + 2)
	if got := tel.Reg.Total("transitions"); got != wantTransitions {
		t.Errorf("transitions counter = %d, want %d", got, wantTransitions)
	}
	recs := tel.Rec.Records()
	if uint64(len(recs)) != wantTransitions {
		t.Fatalf("flight records = %d, want %d", len(recs), wantTransitions)
	}
	for _, r := range recs {
		if r.Kind != telemetry.KindLevel {
			t.Errorf("record kind = %v, want level", r.Kind)
		}
	}
	if got := tel.Reg.Total("nodes"); got != uint64(len(c.nodes)) {
		t.Errorf("nodes gauge = %d, want %d", got, len(c.nodes))
	}
	if len(tel.Sampler.Samples) < 2 {
		t.Fatalf("got %d samples, want interval slices plus the final one", len(tel.Sampler.Samples))
	}
	// Femtosecond ticks scale to picoseconds on export: the input's rise at
	// 10000 fs must print as 10 ps, not 10000.
	var b strings.Builder
	if err := telemetry.WriteFlightCSV(&b, recs[:1], tel.Opts.TickPS); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if !strings.HasPrefix(lines[1], "10,") {
		t.Errorf("femtosecond record %q should export at_ps=10", lines[1])
	}
}

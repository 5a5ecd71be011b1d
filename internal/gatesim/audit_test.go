package gatesim

import (
	"testing"

	"baldur/internal/check"
)

// TestRunAuditedClean replays the inverter workload under the audit layer:
// same edges as Run, zero violations, and the pool census settles to zero.
func TestRunAuditedClean(t *testing.T) {
	c := New(Config{})
	in := c.NewNode("in")
	out := c.Not(in, "out")
	probe := c.Probe(out)
	aud := check.New(check.Options{Interval: 5000}) // 5 ps slices in engine ticks (fs)
	c.AttachAudit(aud)
	c.PlaySignal(in, pulseAt(10000, 5000))
	c.RunSliced(100000, nil, aud)

	if err := aud.Err(); err != nil {
		t.Fatal(err)
	}
	if aud.Checkpoints() < 2 {
		t.Errorf("checkpoints = %d, want the sliced run to checkpoint repeatedly", aud.Checkpoints())
	}
	if edges := probe.Edges(); len(edges) != 3 {
		t.Errorf("edges = %d under audit, want 3 (auditing must not perturb the circuit)", len(edges))
	}
}

// TestRunAuditedCatchesLeak skews the transition-event census by one and
// requires the settle checkpoint to flag the leak.
func TestRunAuditedCatchesLeak(t *testing.T) {
	c := New(Config{})
	in := c.NewNode("in")
	c.Not(in, "out")
	aud := check.New(check.Options{})
	c.AttachAudit(aud)
	c.aud.lvl.Get() // simulate an acquired-but-never-freed levelEvent
	c.PlaySignal(in, pulseAt(10000, 5000))
	c.RunSliced(100000, nil, aud)

	vs := aud.Violations()
	if len(vs) == 0 {
		t.Fatal("leaked transition event went undetected")
	}
	found := false
	for _, v := range vs {
		if v.Rule == "gate/pools" {
			found = true
		}
	}
	if !found {
		t.Errorf("no gate/pools violation; first: %s", vs[0])
	}
}

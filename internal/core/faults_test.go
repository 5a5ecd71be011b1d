package core

import (
	"testing"

	"baldur/internal/check"
	"baldur/internal/netsim"
	"baldur/internal/reliability"
	"baldur/internal/sim"
)

func TestInjectFaultValidation(t *testing.T) {
	n := mustNew(t, Config{Nodes: 64, Multiplicity: 2, Seed: 1})
	if err := n.InjectFault(FaultSpec{Stage: 99, Switch: 0}); err == nil {
		t.Error("out-of-range fault accepted")
	}
	if err := n.InjectFault(FaultSpec{Stage: 0, Switch: 5}); err != nil {
		t.Errorf("valid fault rejected: %v", err)
	}
	if err := n.InjectFault(FaultSpec{Stage: -1}); err != nil {
		t.Errorf("clearing fault failed: %v", err)
	}
}

func TestFaultSetAccumulatesAndClears(t *testing.T) {
	// Faults now form a set: injecting a second switch must not forget the
	// first, ClearFault removes exactly one, and the legacy negative-stage
	// spec still clears everything.
	n := mustNew(t, Config{Nodes: 64, Multiplicity: 2, Seed: 1, DisableRetransmit: true})
	if err := n.InjectFault(FaultSpec{Stage: 0, Switch: 0}); err != nil {
		t.Fatal(err)
	}
	if err := n.InjectFault(FaultSpec{Stage: 0, Switch: 1}); err != nil {
		t.Fatal(err)
	}
	// Nodes 0/1 feed stage-0 switch 0; nodes 2/3 feed switch 1.
	if n.ProbePath(0, 33) {
		t.Error("probe through first dead switch delivered")
	}
	if n.ProbePath(2, 33) {
		t.Error("probe through second dead switch delivered")
	}
	if err := n.ClearFault(FaultSpec{Stage: 0, Switch: 0}); err != nil {
		t.Fatal(err)
	}
	if !n.ProbePath(0, 33) {
		t.Error("probe lost after its switch was restored")
	}
	if n.ProbePath(2, 33) {
		t.Error("clearing one fault also cleared the other")
	}
	if err := n.InjectFault(FaultSpec{Stage: -1}); err != nil {
		t.Fatal(err)
	}
	if !n.ProbePath(2, 33) {
		t.Error("negative-stage clear left a fault armed")
	}
	if err := n.ClearFault(FaultSpec{Stage: 99, Switch: 0}); err == nil {
		t.Error("out-of-range ClearFault accepted")
	}
}

func TestHostLinkKillAndRestore(t *testing.T) {
	n := mustNew(t, Config{Nodes: 64, Multiplicity: 2, Seed: 1, DisableRetransmit: true})
	if err := n.KillHostLink(0); err != nil {
		t.Fatal(err)
	}
	if n.ProbePath(0, 33) {
		t.Error("probe from a severed node delivered")
	}
	if !n.ProbePath(5, 33) {
		t.Error("unrelated probe lost while node 0's link is dead")
	}
	if n.ProbePath(5, 0) {
		t.Error("probe into a severed node delivered")
	}
	if err := n.RestoreHostLink(0); err != nil {
		t.Fatal(err)
	}
	if !n.ProbePath(0, 33) || !n.ProbePath(5, 0) {
		t.Error("probes still lost after the host link was restored")
	}
	if err := n.KillHostLink(-1); err == nil {
		t.Error("out-of-range KillHostLink accepted")
	}
}

func TestAttemptCapDrainsFaultedRun(t *testing.T) {
	// With the reliability protocol on and a dead switch in every path of
	// nodes 0/1, an uncapped run would retransmit past any horizon. The
	// attempt cap must make it drain, count the abandoned packets in GaveUp,
	// and keep every conservation ledger clean (the audit's faulted form:
	// injected == completed + outstanding + gaveUp).
	for _, k := range []int{1, 4} {
		n := mustNew(t, Config{Nodes: 16, Multiplicity: 1, Seed: 1, MaxAttempts: 4, Shards: k})
		if err := n.InjectFault(FaultSpec{Stage: 0, Switch: 0}); err != nil {
			t.Fatal(err)
		}
		aud := check.New(check.Options{})
		n.AttachAudit(aud)
		for src := 0; src < 4; src++ {
			src := src
			n.ScheduleNode(src, 0, eventFunc(func() { n.Send(src, 15-src, 0) }))
		}
		more, _ := netsim.Drive(n, sim.Time(2*sim.Millisecond), netsim.DriveOptions{Aud: aud})
		if more {
			t.Errorf("K=%d: capped faulted run did not drain", k)
		}
		if err := aud.Err(); err != nil {
			t.Errorf("K=%d: %v", k, err)
		}
		n.SyncStats()
		if n.Stats.GaveUp != 2 {
			// Nodes 0 and 1 feed the dead stage-0 switch; 2 and 3 do not.
			t.Errorf("K=%d: GaveUp = %d, want 2", k, n.Stats.GaveUp)
		}
		if n.Stats.Delivered != 2 {
			t.Errorf("K=%d: Delivered = %d, want the 2 unaffected sources", k, n.Stats.Delivered)
		}
		if n.Stats.FaultDrops == 0 {
			t.Errorf("K=%d: no FaultDrops counted through a dead switch", k)
		}
		if n.Stats.Retransmissions < 2*3 {
			// At least 3 retries per abandoned packet (unaffected sources
			// may add spurious timeout retransmissions on top).
			t.Errorf("K=%d: Retransmissions = %d, want >= 6", k, n.Stats.Retransmissions)
		}
	}
}

func TestRestorationRestoresDelivery(t *testing.T) {
	// Kill the switch under node 0, let the protocol retry against it, then
	// restore: the pending packet must deliver with no attempt cap needed.
	n := mustNew(t, Config{Nodes: 16, Multiplicity: 1, Seed: 1})
	if err := n.InjectFault(FaultSpec{Stage: 0, Switch: 0}); err != nil {
		t.Fatal(err)
	}
	aud := check.New(check.Options{})
	n.AttachAudit(aud)
	n.Send(0, 9, 0)
	netsim.Drive(n, sim.Time(20*sim.Microsecond), netsim.DriveOptions{Aud: aud})
	n.SyncStats()
	if n.Stats.Delivered != 0 || n.Stats.FaultDrops == 0 {
		t.Fatalf("construction broke: delivered=%d faultDrops=%d while the switch is dead",
			n.Stats.Delivered, n.Stats.FaultDrops)
	}
	if err := n.ClearFault(FaultSpec{Stage: 0, Switch: 0}); err != nil {
		t.Fatal(err)
	}
	more, _ := netsim.Drive(n, sim.Time(2*sim.Millisecond), netsim.DriveOptions{Aud: aud})
	if more {
		t.Error("run did not drain after restoration")
	}
	if err := aud.Err(); err != nil {
		t.Error(err)
	}
	n.SyncStats()
	if n.Stats.Delivered != 1 || n.Stats.GaveUp != 0 {
		t.Errorf("delivered=%d gaveUp=%d after restore, want 1 and 0", n.Stats.Delivered, n.Stats.GaveUp)
	}
}

func TestSetTestModeValidation(t *testing.T) {
	n := mustNew(t, Config{Nodes: 64, Multiplicity: 2, Seed: 1})
	if err := n.SetTestMode(5); err == nil {
		t.Error("path >= multiplicity accepted")
	}
	if err := n.SetTestMode(1); err != nil {
		t.Errorf("valid path rejected: %v", err)
	}
	if err := n.SetTestMode(-1); err != nil {
		t.Errorf("clearing test mode failed: %v", err)
	}
}

func TestFaultDropsTraffic(t *testing.T) {
	// Inject a stage-0 fault at the switch serving nodes 0 and 1: all
	// their transmissions must be lost; other sources are unaffected.
	n := mustNew(t, Config{Nodes: 64, Multiplicity: 2, Seed: 1, DisableRetransmit: true})
	if err := n.InjectFault(FaultSpec{Stage: 0, Switch: 0}); err != nil {
		t.Fatal(err)
	}
	if n.ProbePath(0, 33) {
		t.Error("probe through the faulty switch was delivered")
	}
	if !n.ProbePath(5, 33) {
		t.Error("probe avoiding the faulty switch was lost")
	}
}

func TestProbePathPanicsWithProtocolOn(t *testing.T) {
	n := mustNew(t, Config{Nodes: 16, Multiplicity: 1, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Error("ProbePath with retransmission enabled did not panic")
		}
	}()
	n.ProbePath(0, 9)
}

func TestEndToEndDiagnosis(t *testing.T) {
	// The full Sec IV-F procedure against the live simulator: force
	// deterministic single-path routing, probe pairs, and let the
	// diagnosis engine isolate the injected fault using the observed
	// failures.
	for _, fault := range []FaultSpec{
		{Stage: 1, Switch: 7},
		{Stage: 4, Switch: 20},
	} {
		n := mustNew(t, Config{Nodes: 64, Multiplicity: 3, Seed: 5, DisableRetransmit: true})
		if err := n.InjectFault(fault); err != nil {
			t.Fatal(err)
		}
		const path = 1
		if err := n.SetTestMode(path); err != nil {
			t.Fatal(err)
		}
		oracle := func(src, dst int) bool { return !n.ProbePath(src, dst) }
		got, err := reliability.Diagnose(n.Wiring(), path, oracle)
		if err != nil {
			t.Fatalf("fault %+v: %v", fault, err)
		}
		if got.Stage != fault.Stage || got.Switch != fault.Switch {
			t.Errorf("diagnosed %+v, want %+v", got, fault)
		}
	}
}

func TestTestModeRestrictsPaths(t *testing.T) {
	// In test mode two simultaneous packets to the same switch direction
	// collide even though multiplicity would normally separate them.
	run := func(testMode bool) uint64 {
		n := mustNew(t, Config{Nodes: 16, Multiplicity: 2, Seed: 2, DisableRetransmit: true})
		if testMode {
			if err := n.SetTestMode(0); err != nil {
				t.Fatal(err)
			}
		}
		n.Engine().At(0, func() {
			n.Send(0, 9, 0)
			n.Send(1, 9, 0) // same first-stage switch, same direction
		})
		n.Engine().Run()
		return n.Stats.DataDrops
	}
	if drops := run(false); drops != 0 {
		t.Errorf("multi-path mode dropped %d packets", drops)
	}
	if drops := run(true); drops == 0 {
		t.Error("test mode did not serialize onto a single path")
	}
}

func TestProbePathIgnoresCoexistingWorkload(t *testing.T) {
	// Regression: ProbePath's delivery observer used to key on the
	// (src, dst, size=64) signature, so a coexisting 64-byte workload
	// packet with the same endpoints registered as a probe delivery even
	// when the probe itself was dropped.
	//
	// Construction: nodes 0 and 1 share the stage-0 injection switch.
	// With multiplicity 1, a blocker from node 0 sent at t=0 wins the
	// simultaneous stage-0 arbitration against the probe (lower actor
	// key), so the probe is dropped. A 64-byte workload packet from the
	// probe's own (src, dst) pair, serialized behind the probe on node 1's
	// injection wire, arrives exactly as the blocker releases the switch
	// and is delivered. The probe must still report failure.
	n := mustNew(t, Config{Nodes: 64, Multiplicity: 1, Seed: 1, DisableRetransmit: true})
	n.Send(0, 33, 0) // blocker: occupies stage-0 switch 0 when the probe's head arrives
	n.Engine().At(sim.Time(5*sim.Nanosecond), func() {
		n.Send(1, 33, 64) // workload packet matching the probe's old signature
	})
	if n.ProbePath(1, 33) {
		t.Error("dropped probe reported delivered (workload packet matched the probe signature)")
	}
	if n.Stats.DataDrops != 1 {
		t.Fatalf("construction broke: %d drops, want exactly the probe dropped", n.Stats.DataDrops)
	}
	if n.Stats.Delivered != 2 {
		t.Fatalf("construction broke: %d delivered, want blocker + workload", n.Stats.Delivered)
	}
}

func TestProbePathRemovesOnlyItsObserver(t *testing.T) {
	// Regression: ProbePath used to strip the *last* delivery observer on
	// exit. An observer registered while the probe was in flight landed
	// after ProbePath's own and was removed in its place, leaving the
	// stale probe observer armed.
	n := mustNew(t, Config{Nodes: 16, Multiplicity: 1, Seed: 1, DisableRetransmit: true})
	var aCount, bCount int
	n.OnDeliver(func(*netsim.Packet, sim.Time) { aCount++ })
	eng := n.Engine()
	// Registered from an event at t=0: runs after ProbePath appends its
	// observer, so B lands last in the list.
	eng.At(0, func() {
		n.OnDeliver(func(*netsim.Packet, sim.Time) { bCount++ })
	})
	if !n.ProbePath(0, 9) {
		t.Fatal("probe lost on a healthy network")
	}
	if len(n.onDeliver) != 2 {
		t.Fatalf("%d observers left after ProbePath, want the 2 user observers", len(n.onDeliver))
	}
	a0, b0 := aCount, bCount
	n.Send(0, 9, 0)
	eng.Run()
	if aCount != a0+1 || bCount != b0+1 {
		t.Errorf("observer counts after follow-up delivery: a +%d, b +%d, want +1 each",
			aCount-a0, bCount-b0)
	}
}

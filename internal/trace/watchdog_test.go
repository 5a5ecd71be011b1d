package trace

import (
	"strings"
	"testing"

	"baldur/internal/core"
	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/telemetry"
)

// TestWatchdogDiagnosesSpinningReplay injects a fault that drops every
// packet of the only path (multiplicity 1), so the reliability protocol
// retransmits forever. Without a watchdog the replay would spin; with one
// it must stop after the window and name the blocked rank and its pending
// Recv peer.
func TestWatchdogDiagnosesSpinningReplay(t *testing.T) {
	n, err := core.New(core.Config{Nodes: 4, Multiplicity: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.InjectFault(core.FaultSpec{Stage: 0, Switch: 0}); err != nil {
		t.Fatal(err)
	}
	w := &Workload{
		Name: "spin",
		Programs: []Program{
			{{Kind: OpSend, Peer: 1, Bytes: 512}},
			{{Kind: OpRecv, Peer: 0, Bytes: 512}},
		},
	}
	r, err := NewReplayer(n, w)
	if err != nil {
		t.Fatal(err)
	}
	r.Watchdog = 50 * sim.Microsecond
	st := r.Run()
	if st.Completed {
		t.Fatal("faulted replay reported completion")
	}
	if st.Stuck == nil {
		t.Fatal("watchdog did not produce a stuck report")
	}
	if st.Stuck.Deadlock {
		t.Error("spinning replay misdiagnosed as deadlock (events were still executing)")
	}
	if st.Stuck.Window != r.Watchdog {
		t.Errorf("report window = %v, want %v", st.Stuck.Window, r.Watchdog)
	}
	if len(st.Stuck.Ranks) != 1 {
		t.Fatalf("stuck ranks = %+v, want exactly rank 1", st.Stuck.Ranks)
	}
	sr := st.Stuck.Ranks[0]
	if sr.Rank != 1 || !sr.Waiting || sr.Peer != 0 || sr.Need != 1 {
		t.Errorf("stuck rank = %+v, want rank 1 waiting on 1 packet from rank 0", sr)
	}
	msg := st.Stuck.String()
	if !strings.Contains(msg, "no rank progressed") || !strings.Contains(msg, "rank 1") {
		t.Errorf("diagnostic %q should name the window and the blocked rank", msg)
	}
}

// TestWatchdogReportsDrainedDeadlock builds a circular wait: both ranks
// Recv before either Sends, so no packet is ever injected and the engine
// drains immediately with both ranks blocked.
func TestWatchdogReportsDrainedDeadlock(t *testing.T) {
	n, err := core.New(core.Config{Nodes: 4, Multiplicity: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w := &Workload{
		Name: "cycle",
		Programs: []Program{
			{{Kind: OpRecv, Peer: 1, Bytes: 512}, {Kind: OpSend, Peer: 1, Bytes: 512}},
			{{Kind: OpRecv, Peer: 0, Bytes: 512}, {Kind: OpSend, Peer: 0, Bytes: 512}},
		},
	}
	for _, watchdog := range []sim.Duration{0, 10 * sim.Microsecond} {
		r, err := NewReplayer(n, w)
		if err != nil {
			t.Fatal(err)
		}
		r.Watchdog = watchdog
		st := r.Run()
		if st.Completed || st.Stuck == nil {
			t.Fatalf("watchdog=%v: deadlock not reported: %+v", watchdog, st)
		}
		if !st.Stuck.Deadlock {
			t.Errorf("watchdog=%v: drained engine should report Deadlock", watchdog)
		}
		if len(st.Stuck.Ranks) != 2 {
			t.Fatalf("watchdog=%v: stuck ranks = %+v, want both", watchdog, st.Stuck.Ranks)
		}
		for i, sr := range st.Stuck.Ranks {
			if sr.Rank != i || !sr.Waiting || sr.Peer != 1-i {
				t.Errorf("stuck rank %d = %+v, want waiting on rank %d", i, sr, 1-i)
			}
		}
		if msg := st.Stuck.String(); !strings.Contains(msg, "deadlock") {
			t.Errorf("diagnostic %q should say deadlock", msg)
		}
		// A fresh deadlocked replayer leaves delivery callbacks behind;
		// rebuild the network for the next watchdog setting.
		n, err = core.New(core.Config{Nodes: 4, Multiplicity: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestWatchdogDoesNotTripOnComputeGaps runs a workload whose only long
// stretch is an idle compute delay far longer than the watchdog window; the
// idle-gap fast-forward must keep the replay alive to completion with the
// same makespan as an unwatched run.
func TestWatchdogDoesNotTripOnComputeGaps(t *testing.T) {
	mk := func() (*Replayer, error) {
		n, err := core.New(core.Config{Nodes: 4, Multiplicity: 2, Seed: 1})
		if err != nil {
			return nil, err
		}
		return NewReplayer(n, &Workload{
			Name: "gap",
			Programs: []Program{
				{
					{Kind: OpSend, Peer: 1, Bytes: 512},
					{Kind: OpCompute, Dur: 500 * sim.Microsecond},
					{Kind: OpSend, Peer: 1, Bytes: 512},
				},
				{
					{Kind: OpRecv, Peer: 0, Bytes: 512},
					{Kind: OpRecv, Peer: 0, Bytes: 512},
				},
			},
		})
	}
	plain, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	base := plain.Run()
	if !base.Completed {
		t.Fatal("baseline replay did not complete")
	}
	watched, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	watched.Watchdog = 20 * sim.Microsecond
	st := watched.Run()
	if !st.Completed {
		t.Fatalf("watchdog tripped on an idle compute gap: %+v", st.Stuck)
	}
	if st.Makespan != base.Makespan {
		t.Errorf("watched makespan %v != plain %v", st.Makespan, base.Makespan)
	}
}

// TestReplayTelemetrySampling drives a replay through netsim.Drive with a
// telemetry layer attached and checks that interval samples are taken and
// the delivered counter sums to the packet count, without perturbing the
// makespan.
func TestReplayTelemetrySampling(t *testing.T) {
	mk := func(tel *telemetry.Telemetry) (*Replayer, netsim.Network, error) {
		n, err := core.New(core.Config{Nodes: 4, Multiplicity: 2, Seed: 1})
		if err != nil {
			return nil, nil, err
		}
		if tel != nil {
			n.AttachTelemetry(tel)
		}
		r, err := NewReplayer(n, &Workload{
			Name: "sampled",
			Programs: []Program{
				{{Kind: OpSend, Peer: 1, Bytes: 512}, {Kind: OpCompute, Dur: 30 * sim.Microsecond}, {Kind: OpSend, Peer: 1, Bytes: 512}},
				{{Kind: OpRecv, Peer: 0, Bytes: 512}, {Kind: OpRecv, Peer: 0, Bytes: 512}},
			},
		})
		return r, n, err
	}
	plain, _, err := mk(nil)
	if err != nil {
		t.Fatal(err)
	}
	base := plain.Run()

	tel := telemetry.New(telemetry.Options{SampleInterval: 5 * sim.Microsecond}, 1)
	watched, n, err := mk(tel)
	if err != nil {
		t.Fatal(err)
	}
	watched.Start()
	more, err := netsim.Drive(n, sim.Time(sim.Second), netsim.DriveOptions{Tel: tel, Observe: watched.Watch})
	if err != nil {
		t.Fatal(err)
	}
	st := watched.Stats(more)
	if !st.Completed {
		t.Fatalf("sampled replay did not complete: %+v", st.Stuck)
	}
	if st.Makespan != base.Makespan {
		t.Errorf("sampled makespan %v != plain %v", st.Makespan, base.Makespan)
	}
	if len(tel.Sampler.Samples) == 0 {
		t.Fatal("no telemetry samples taken during replay")
	}
	id := tel.Reg.Index("delivered")
	var sum uint64
	for _, sm := range tel.Sampler.Samples {
		sum += sm.Values[id]
	}
	if sum != st.Packets {
		t.Errorf("sampled delivered sum = %d, want %d packets", sum, st.Packets)
	}
}

// TestReplayCutAtDeadlineIsNotDeadlock stops a replay at a deadline while
// its compute gap still has the second send queued: the run reports work
// remaining, and the replay is incomplete but not diagnosed as a drained
// deadlock.
func TestReplayCutAtDeadlineIsNotDeadlock(t *testing.T) {
	n, err := core.New(core.Config{Nodes: 4, Multiplicity: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReplayer(n, &Workload{
		Name: "cut",
		Programs: []Program{
			{{Kind: OpSend, Peer: 1, Bytes: 512}, {Kind: OpCompute, Dur: 100 * sim.Microsecond}, {Kind: OpSend, Peer: 1, Bytes: 512}},
			{{Kind: OpRecv, Peer: 0, Bytes: 512}, {Kind: OpRecv, Peer: 0, Bytes: 512}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	more, err := netsim.Drive(n, sim.Time(20*sim.Microsecond), netsim.DriveOptions{Observe: r.Watch})
	if err != nil {
		t.Fatal(err)
	}
	if !more {
		t.Fatal("run cut at the deadline reported no queued work")
	}
	st := r.Stats(more)
	if st.Completed {
		t.Error("replay cut mid-compute reported completion")
	}
	if st.Stuck != nil && st.Stuck.Deadlock {
		t.Errorf("deadline cut misreported as a deadlock: %s", st.Stuck)
	}
	if st.Makespan != 0 {
		t.Errorf("makespan = %v for an incomplete replay", st.Makespan)
	}
}

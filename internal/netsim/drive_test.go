package netsim

import (
	"reflect"
	"testing"

	"baldur/internal/check"
	"baldur/internal/sim"
	"baldur/internal/telemetry"
)

// slicedNet is a fakeNet that counts its Run calls as epochs, the way a
// sharded engine counts barriers.
type slicedNet struct {
	fakeNet
	runs uint64
}

func (s *slicedNet) Run(deadline sim.Time) bool {
	s.runs++
	return s.eng.RunUntil(deadline)
}
func (s *slicedNet) Events() uint64                               { return s.eng.Executed }
func (s *slicedNet) NumShards() int                               { return 1 }
func (s *slicedNet) NodeShard(int) int                            { return 0 }
func (s *slicedNet) ScheduleNode(_ int, t sim.Time, ev sim.Event) { s.eng.Schedule(t, ev) }
func (s *slicedNet) Epochs() uint64                               { return s.runs }

func us(n int64) sim.Time { return sim.Time(sim.Duration(n) * sim.Microsecond) }

// newBusyNet returns a network with one event every microsecond from 0
// through until, so it drains just after until.
func newBusyNet(until sim.Time) *slicedNet {
	s := &slicedNet{fakeNet: fakeNet{eng: sim.NewEngine()}}
	var tick func()
	tick = func() {
		if next := s.eng.Now().Add(sim.Microsecond); next <= until {
			s.eng.At(next, tick)
		}
	}
	s.eng.At(0, tick)
	return s
}

// fakeScript is a Script whose actions are bare times; it records the
// barrier time each action was applied at.
type fakeScript struct {
	events  []sim.Time
	next    int
	applied []sim.Time
}

func (f *fakeScript) NextAt() (sim.Time, bool) {
	if f.next >= len(f.events) {
		return 0, false
	}
	return f.events[f.next], true
}

func (f *fakeScript) Pending() bool { return f.next < len(f.events) }

func (f *fakeScript) ApplyDue(_ Network, now sim.Time, _ *telemetry.Telemetry) (int, error) {
	n := 0
	for f.next < len(f.events) && f.events[f.next] <= now {
		f.applied = append(f.applied, now)
		f.next++
		n++
	}
	return n, nil
}

// boundaries records every Observe call and asks to stop once it has seen
// stopAfter boundaries (0: never).
type boundaries struct {
	at        []sim.Time
	drained   []bool
	stopAfter int
}

func (b *boundaries) observe(at sim.Time, drained bool) bool {
	b.at = append(b.at, at)
	b.drained = append(b.drained, drained)
	return len(b.at) == b.stopAfter
}

// TestDriveNoHooksIsOneRun: with no hooks Drive is a single Run, so the
// epoch count and the result match a bare Run on an identical network.
func TestDriveNoHooksIsOneRun(t *testing.T) {
	bare := newBusyNet(us(50))
	driven := newBusyNet(us(50))
	wantMore := Run(bare, us(30))
	more, err := Drive(driven, us(30), DriveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if more != wantMore || Epochs(driven) != Epochs(bare) || Epochs(driven) != 1 {
		t.Errorf("Drive: more=%v epochs=%d; bare Run: more=%v epochs=%d",
			more, Epochs(driven), wantMore, Epochs(bare))
	}
	if Events(driven) != Events(bare) {
		t.Errorf("Drive dispatched %d events, bare Run %d", Events(driven), Events(bare))
	}
}

// TestDriveScriptForcesClampedBoundaries: script action times add
// boundaries between the interval steps (the next step counts from the
// action's boundary), the last boundary is clamped to the deadline, and an
// action past the deadline stays pending.
func TestDriveScriptForcesClampedBoundaries(t *testing.T) {
	n := newBusyNet(us(100))
	script := &fakeScript{events: []sim.Time{0, us(4), us(50)}}
	tel := telemetry.New(telemetry.Options{SampleInterval: 10 * sim.Microsecond}, 1)
	var b boundaries
	more, err := Drive(n, us(35), DriveOptions{Tel: tel, Script: script, Observe: b.observe})
	if err != nil {
		t.Fatal(err)
	}
	if !more {
		t.Error("busy run reported drained at the deadline")
	}
	want := []sim.Time{us(4), us(14), us(24), us(34), us(35)}
	if !reflect.DeepEqual(b.at, want) {
		t.Errorf("boundaries = %v, want %v", b.at, want)
	}
	if got := len(tel.Sampler.Samples); got != len(want) {
		t.Errorf("%d samples for %d boundaries", got, len(want))
	}
	if want := []sim.Time{0, us(4)}; !reflect.DeepEqual(script.applied, want) {
		t.Errorf("actions applied at %v, want %v", script.applied, want)
	}
	if !script.Pending() {
		t.Error("action past the deadline was applied")
	}
}

// TestDriveStopsOnDrain: once the network drains with no script action
// pending, Drive stops at that boundary — no further samples, checkpoints
// or observations up to the deadline.
func TestDriveStopsOnDrain(t *testing.T) {
	n := newBusyNet(us(15))
	tel := telemetry.New(telemetry.Options{SampleInterval: 10 * sim.Microsecond}, 1)
	aud := check.New(check.Options{})
	var b boundaries
	more, err := Drive(n, sim.Time(sim.Millisecond), DriveOptions{Tel: tel, Aud: aud, Observe: b.observe})
	if err != nil {
		t.Fatal(err)
	}
	if more {
		t.Error("drained run reported more work")
	}
	if want := []sim.Time{us(10), us(20)}; !reflect.DeepEqual(b.at, want) {
		t.Errorf("boundaries = %v, want %v", b.at, want)
	}
	if want := []bool{false, true}; !reflect.DeepEqual(b.drained, want) {
		t.Errorf("drained flags = %v, want %v", b.drained, want)
	}
	if got := len(tel.Sampler.Samples); got != 2 {
		t.Errorf("%d samples after a drain at the second boundary, want 2", got)
	}
	if got := aud.Checkpoints(); got != 2 {
		t.Errorf("%d checkpoints after a drain at the second boundary, want 2", got)
	}
}

// TestDriveStopsWhenObserveAsks: an Observe that returns true ends the run
// at that boundary with the queued work reported, before the boundary's due
// script actions apply.
func TestDriveStopsWhenObserveAsks(t *testing.T) {
	n := newBusyNet(us(100))
	script := &fakeScript{events: []sim.Time{us(20)}}
	b := boundaries{stopAfter: 2}
	more, err := Drive(n, sim.Time(sim.Millisecond), DriveOptions{Interval: 10 * sim.Microsecond, Script: script, Observe: b.observe})
	if err != nil {
		t.Fatal(err)
	}
	if !more {
		t.Error("stopped run reported drained")
	}
	if want := []sim.Time{us(10), us(20)}; !reflect.DeepEqual(b.at, want) {
		t.Errorf("boundaries = %v, want %v", b.at, want)
	}
	if n.eng.Now() != us(20) {
		t.Errorf("clock = %v after stopping at 20us", n.eng.Now())
	}
	if len(script.applied) != 0 {
		t.Errorf("actions applied at %v after Observe stopped the run", script.applied)
	}
}

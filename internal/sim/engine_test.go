package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	end := e.Run()
	if end != 30 {
		t.Errorf("final time = %v, want 30ps", end)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("dispatch order = %v, want [1 2 3]", got)
	}
}

func TestEngineFIFOAtEqualTimes(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-time events dispatched out of order at %d: %v", i, v)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired int
	var recurse func()
	recurse = func() {
		fired++
		if fired < 10 {
			e.After(7, recurse)
		}
	}
	e.At(0, recurse)
	end := e.Run()
	if fired != 10 {
		t.Errorf("fired = %d, want 10", fired)
	}
	if end != 63 {
		t.Errorf("end = %v, want 63ps", end)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var count int
	for i := 1; i <= 10; i++ {
		e.At(Time(i*10), func() { count++ })
	}
	more := e.RunUntil(55)
	if !more {
		t.Error("RunUntil reported drained queue with events left")
	}
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if e.Now() != 55 {
		t.Errorf("now = %v, want 55ps", e.Now())
	}
	more = e.RunUntil(1000)
	if more {
		t.Error("RunUntil reported pending events after drain")
	}
	if count != 10 {
		t.Errorf("count = %d, want 10", count)
	}
	if e.Now() != 1000 {
		t.Errorf("now = %v, want clock advanced to deadline", e.Now())
	}
}

func TestEngineMonotoneDispatchProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var last Time = -1
		ok := true
		for _, d := range delays {
			e.At(Time(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEngineExecutedCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 42; i++ {
		e.At(Time(i), func() {})
	}
	e.Run()
	if e.Executed != 42 {
		t.Errorf("Executed = %d, want 42", e.Executed)
	}
}

// TestEngineFIFOStress hammers the equal-time tie path with interleaved
// closure (At/After) and typed (Schedule/ScheduleAfter) scheduling: many
// events collapse onto few distinct timestamps, events reschedule onto the
// time currently being dispatched, and the engine must still dispatch every
// tie group in exact scheduling order despite event pooling and the
// tie-batch drain in the heap.
func TestEngineFIFOStress(t *testing.T) {
	e := NewEngine()
	rng := NewRNG(7)
	var got []rec
	seq := 0
	schedule := func(t Time) {
		s := seq
		seq++
		if s%2 == 0 {
			e.At(t, func() { got = append(got, rec{e.Now(), s}) })
		} else {
			e.Schedule(t, recEvent{&got, s})
		}
	}
	// Phase 1: 2000 events over only 8 distinct times, mixed APIs.
	for i := 0; i < 2000; i++ {
		schedule(Time(rng.Intn(8)))
	}
	// Phase 2: events that reschedule onto their own dispatch time (the new
	// event must run after every already-queued event at that time).
	for i := 0; i < 50; i++ {
		at := Time(10 + rng.Intn(4))
		s := seq
		seq++
		e.At(at, func() {
			got = append(got, rec{e.Now(), s})
			s2 := seq
			seq++
			e.Schedule(at, recEvent{&got, s2})
		})
	}
	e.Run()
	if len(got) != seq {
		t.Fatalf("dispatched %d events, scheduled %d", len(got), seq)
	}
	for i := 1; i < len(got); i++ {
		if got[i].at < got[i-1].at {
			t.Fatalf("time went backwards at %d: %+v after %+v", i, got[i], got[i-1])
		}
		if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
			t.Fatalf("FIFO violated within tie group at %d: seq %d after %d (t=%v)",
				i, got[i].seq, got[i-1].seq, got[i].at)
		}
	}
}

type rec struct {
	at  Time
	seq int
}

type recEvent struct {
	got *[]rec
	seq int
}

func (r recEvent) Run(e *Engine) {
	*r.got = append(*r.got, rec{e.Now(), r.seq})
}

// TestEngineClosureTypedEquivalent schedules the same workload once through
// the closure API and once through the typed API and requires the identical
// dispatch order: At/After are thin wrappers and must not perturb ordering.
func TestEngineClosureTypedEquivalent(t *testing.T) {
	run := func(typed bool) []int {
		e := NewEngine()
		rng := NewRNG(3)
		var got []int
		for i := 0; i < 500; i++ {
			i := i
			at := Time(rng.Intn(20))
			if typed {
				e.Schedule(at, orderEvent{&got, i})
			} else {
				e.At(at, func() { got = append(got, i) })
			}
		}
		e.Run()
		return got
	}
	closure, typed := run(false), run(true)
	for i := range closure {
		if closure[i] != typed[i] {
			t.Fatalf("closure and typed paths diverge at %d: %d vs %d", i, closure[i], typed[i])
		}
	}
}

type orderEvent struct {
	got *[]int
	i   int
}

func (o orderEvent) Run(*Engine) { *o.got = append(*o.got, o.i) }

func BenchmarkEngineScheduleDispatch(b *testing.B) {
	e := NewEngine()
	rng := NewRNG(1)
	b.ReportAllocs()
	var fn func()
	n := 0
	fn = func() {
		if n < b.N {
			n++
			e.After(Duration(rng.Intn(1000)+1), fn)
		}
	}
	// Keep 1000 events in flight, a realistic queue depth.
	for i := 0; i < 1000 && n < b.N; i++ {
		n++
		e.At(Time(rng.Intn(1000)), fn)
	}
	b.ResetTimer()
	e.Run()
}

// tbEvent is the typed-path analogue of the closure benchmark above: a
// single event rescheduling itself, the steady-state pattern of the
// converted network models.
type tbEvent struct {
	rng *RNG
	n   int
	max int
}

func (ev *tbEvent) Run(e *Engine) {
	if ev.n < ev.max {
		ev.n++
		e.ScheduleAfter(Duration(ev.rng.Intn(1000)+1), ev)
	}
}

func BenchmarkEngineScheduleDispatchTyped(b *testing.B) {
	e := NewEngine()
	rng := NewRNG(1)
	b.ReportAllocs()
	ev := &tbEvent{rng: rng, max: b.N}
	// Keep 1000 events in flight, a realistic queue depth.
	for i := 0; i < 1000 && ev.n < b.N; i++ {
		ev.n++
		e.Schedule(Time(rng.Intn(1000)), ev)
	}
	b.ResetTimer()
	e.Run()
}

package netsim

import (
	"testing"

	"baldur/internal/sim"
)

// fakeNet is a minimal Network for collector testing.
type fakeNet struct {
	eng *sim.Engine
	fns []func(*Packet, sim.Time)
}

func (f *fakeNet) Engine() *sim.Engine { return f.eng }
func (f *fakeNet) NumNodes() int       { return 2 }
func (f *fakeNet) Send(src, dst, size int) *Packet {
	return &Packet{Src: src, Dst: dst, Size: size, Created: f.eng.Now()}
}
func (f *fakeNet) OnDeliver(fn func(*Packet, sim.Time)) { f.fns = append(f.fns, fn) }
func (f *fakeNet) Counters() Counters                   { return Counters{} }

func (f *fakeNet) deliver(p *Packet, at sim.Time) {
	for _, fn := range f.fns {
		fn(p, at)
	}
}

func TestCollectorBasics(t *testing.T) {
	n := &fakeNet{eng: sim.NewEngine()}
	var c Collector
	c.Attach(n)
	p := &Packet{Created: 0}
	n.deliver(p, sim.Time(500*sim.Nanosecond))
	n.deliver(&Packet{Created: sim.Time(100 * sim.Nanosecond)}, sim.Time(400*sim.Nanosecond))
	if c.Delivered() != 2 {
		t.Errorf("Delivered = %d", c.Delivered())
	}
	if avg := c.AvgNS(); avg != 400 {
		t.Errorf("AvgNS = %v, want 400", avg)
	}
	if tail := c.TailNS(); tail < 400 {
		t.Errorf("TailNS = %v", tail)
	}
}

func TestCollectorWarmup(t *testing.T) {
	n := &fakeNet{eng: sim.NewEngine()}
	c := Collector{Warmup: sim.Time(1 * sim.Microsecond)}
	c.Attach(n)
	// Created before warmup: excluded from latency but counted delivered.
	n.deliver(&Packet{Created: 0}, sim.Time(100*sim.Microsecond))
	// Created after warmup: included.
	n.deliver(&Packet{Created: sim.Time(2 * sim.Microsecond)}, sim.Time(3*sim.Microsecond))
	if c.Delivered() != 2 {
		t.Errorf("Delivered = %d", c.Delivered())
	}
	if got := c.Samples(); got != 1 {
		t.Errorf("latency samples = %d, want 1", got)
	}
	if avg := c.AvgNS(); avg != 1000 {
		t.Errorf("AvgNS = %v, want 1000 (warmup packet excluded)", avg)
	}
}

func TestCollectorEmpty(t *testing.T) {
	var c Collector
	if c.AvgNS() != 0 || c.TailNS() != 0 || c.Delivered() != 0 {
		t.Error("zero-value collector not neutral")
	}
}

func TestMultipleCollectors(t *testing.T) {
	n := &fakeNet{eng: sim.NewEngine()}
	var a, b Collector
	a.Attach(n)
	b.Attach(n)
	n.deliver(&Packet{Created: 0}, sim.Time(100))
	if a.Delivered() != 1 || b.Delivered() != 1 {
		t.Error("both collectors should observe the delivery")
	}
}

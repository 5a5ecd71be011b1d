package telemetry

import (
	"fmt"
	"io"
	"strings"

	"baldur/internal/sim"
)

// Sample is one interval snapshot of the registry.
type Sample struct {
	At sim.Time
	// Values holds, per registered metric (registry order): the delta since
	// the previous sample for counters, the instantaneous level for gauges.
	// Counter columns therefore sum over the series to the exact end-of-run
	// totals, and the whole slice is bit-identical for any shard count.
	Values []uint64
	// Events and Epochs are per-interval engine-execution deltas. Events is
	// shard-count invariant (every model event dispatches exactly once);
	// Epochs counts barrier rounds and is inherently K-dependent — it is
	// execution telemetry, not model telemetry.
	Events uint64
	Epochs uint64
}

// Sampler turns the registry into a time series: one Sample per interval
// boundary, taken at barriers by the run driver (netsim.Drive or the trace
// replayer), so sampling composes with the sharded engine without
// touching its determinism guarantee.
type Sampler struct {
	// Interval is the simulated time between samples.
	Interval sim.Duration
	// Watch, when non-nil, receives one dashboard line per sample.
	Watch io.Writer
	// Label prefixes watch lines (the experiment cell name).
	Label string

	// Samples is the collected series, in time order.
	Samples []Sample

	prev       []uint64
	cur        []uint64
	lastEvents uint64
	lastEpochs uint64
}

// Take folds the registry and appends one sample at virtual time at.
// events/epochs are the cumulative engine totals; Take stores the deltas.
func (s *Sampler) Take(at sim.Time, reg *Registry, events, epochs uint64) {
	s.cur = reg.Fold(s.cur)
	kinds := reg.Kinds()
	vals := make([]uint64, len(s.cur))
	for i, v := range s.cur {
		if kinds[i] == KindCounter {
			var p uint64
			if i < len(s.prev) {
				p = s.prev[i]
			}
			vals[i] = v - p
		} else {
			vals[i] = v
		}
	}
	if cap(s.prev) < len(s.cur) {
		s.prev = make([]uint64, len(s.cur))
	}
	s.prev = s.prev[:len(s.cur)]
	copy(s.prev, s.cur)
	sm := Sample{At: at, Values: vals, Events: events - s.lastEvents, Epochs: epochs - s.lastEpochs}
	s.Samples = append(s.Samples, sm)
	if s.Watch != nil {
		fmt.Fprintln(s.Watch, s.watchLine(reg, &sm))
	}
	s.lastEvents, s.lastEpochs = events, epochs
}

// watchLine renders one dashboard line: the interval's counter deltas and
// gauge levels, a derived link-utilization percentage when the model
// publishes busy/total wire gauges, and the event/epoch rates.
func (s *Sampler) watchLine(reg *Registry, sm *Sample) string {
	var b strings.Builder
	if s.Label != "" {
		fmt.Fprintf(&b, "[%s] ", s.Label)
	}
	fmt.Fprintf(&b, "t=%-10s", sim.Duration(sm.At).String())
	names, kinds := reg.Names(), reg.Kinds()
	var busy, total uint64
	for i, v := range sm.Values {
		switch names[i] {
		case "wires_busy", "ports_busy":
			busy = v
		case "wires_total", "ports_total":
			total = v
		}
		if v == 0 {
			continue
		}
		if kinds[i] == KindCounter {
			fmt.Fprintf(&b, " %s+=%d", names[i], v)
		} else {
			fmt.Fprintf(&b, " %s=%d", names[i], v)
		}
	}
	if total > 0 {
		fmt.Fprintf(&b, " util=%.1f%%", 100*float64(busy)/float64(total))
	}
	fmt.Fprintf(&b, " ev+=%d", sm.Events)
	if sm.Epochs > 0 {
		fmt.Fprintf(&b, " epochs+=%d", sm.Epochs)
	}
	return b.String()
}

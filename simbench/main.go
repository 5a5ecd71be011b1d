// Command simbench is the simulator's benchmark. It runs one named workload
// for a fixed host-time budget, checks every simulated output against the
// committed reference digests, and prints one JSON result line:
//
//	go run . -workload baldur_perm_k2 -seed 1 -seconds 25 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 it
// carries the per-layer metrics of a separate traced run (README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"baldur/internal/prof"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: baldur_perm_k2|fattree_perm_k2|repro_quick|fault_campaign")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 25, "host seconds to measure for")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	record := flag.String("record", "", "run one pass and store its digests for -seed in this reference file")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	refs, err := loadReferences(referenceJSON)
	if err != nil {
		fatal(err)
	}
	if *record != "" {
		if err := recordPass(w, *seed, *record); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	v := newVerifier(refs, w.name, *seed)
	if !v.committed {
		fmt.Fprintf(os.Stderr, "simbench: no committed digests for %s seed %d; checking passes against the first\n", w.name, *seed)
	}
	var metrics map[string]metric
	if *trace == 1 {
		metrics, err = tracedRun(w, *seed, *seconds, v)
		if err != nil {
			fatal(err)
		}
	} else {
		metrics = endToEnd(w, *seed, *seconds, v)
	}
	if v.firstErr != nil {
		fmt.Fprintf(os.Stderr, "simbench: %d of %d operations failed; first: %v\n", v.failed, v.attempted, v.firstErr)
	}
	out, err := json.Marshal(result{Correct: v.failed == 0, Attempted: v.attempted, Failed: v.failed, Metrics: metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simbench:", err)
	os.Exit(1)
}

// recordPass runs one pass (and, for sharded workloads, the same pass at
// K=1, which must match) and stores its digests in the reference file.
func recordPass(w workload, seed uint64, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	refs, err := loadReferences(data)
	if err != nil {
		return err
	}
	p := w.run(seed, permShards)
	if w.sharded {
		serial := newVerifier(references{w.name: {fmt.Sprint(seed): digestsOf(p)}}, w.name, seed)
		serial.check(w.run(seed, 1))
		if serial.firstErr != nil {
			return fmt.Errorf("K=1 differs from K=%d: %w", permShards, serial.firstErr)
		}
	}
	return refs.record(path, w.name, seed, p.ops)
}

func digestsOf(p pass) []string {
	ds := make([]string, len(p.ops))
	for i, o := range p.ops {
		ds[i] = o.digest
	}
	return ds
}

// measure runs passes until the budget is spent. It starts another pass
// only if the median pass time so far says the pass would end less than half
// a pass after the budget, so a run of long passes (repro_quick) gets a
// second pass on a slow machine; it runs at least one.
func measure(w workload, seed uint64, shards int, budget float64, v *verifier) []pass {
	var passes []pass
	var walls []float64
	start := time.Now()
	for {
		t := time.Now()
		p := w.run(seed, shards)
		walls = append(walls, since(t))
		v.check(p)
		passes = append(passes, p)
		if since(start)+median(walls)/2 > budget {
			return passes
		}
	}
}

// endToEnd measures the workload with tracing off.
func endToEnd(w workload, seed uint64, seconds float64, v *verifier) map[string]metric {
	passes := measure(w, seed, permShards, seconds, v)
	var setup, pps []float64
	for _, p := range passes {
		setup = append(setup, p.setup...)
		pps = append(pps, ratio(float64(p.packets), p.wall))
	}
	return map[string]metric{
		"wall_s":        {median(field(passes, func(p pass) float64 { return p.wall })), "s"},
		"setup_s":       {median(setup), "s"},
		"packets_per_s": {median(pps), "1/s"},
		"peak_rss_mb":   {float64(prof.PeakRSSBytes()) / (1 << 20), "MB"},
	}
}

func field(passes []pass, f func(pass) float64) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = f(p)
	}
	return out
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

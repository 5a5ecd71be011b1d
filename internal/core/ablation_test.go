package core

import (
	"testing"

	"baldur/internal/netsim"
	"baldur/internal/sim"
	"baldur/internal/traffic"
)

// rawDropRate measures the no-retransmission drop rate of a configuration
// under a pattern at 0.7 load.
func rawDropRate(t *testing.T, cfg Config, pat *traffic.Pattern, packets int) float64 {
	t.Helper()
	cfg.DisableRetransmit = true
	n := mustNew(t, cfg)
	ol := traffic.OpenLoop{Pattern: pat, Load: 0.7, PacketsPerNode: packets, Seed: 9}
	ol.Start(n)
	n.Engine().Run()
	return n.Stats.DataDropRate()
}

func TestRandomizedWiringImmuneToTranspose(t *testing.T) {
	// The paper's expansion claim (Sec IV-E, [14], [19]): with randomized
	// inter-stage matchings Baldur is immune to worst-case permutations,
	// while a regular butterfly of identical multiplicity collapses. At
	// 256 nodes / m=4 / transpose / 0.7 load we measure ~0.1% vs ~39%.
	pat := traffic.Transpose(256)
	random := rawDropRate(t, Config{Nodes: 256, Multiplicity: 4, Seed: 3}, pat, 120)
	regular := rawDropRate(t, Config{Nodes: 256, Multiplicity: 4, Seed: 3, Topology: "butterfly"}, pat, 120)
	if random > 0.02 {
		t.Errorf("randomized wiring drop rate %.4f on transpose, want < 2%%", random)
	}
	if regular < 0.15 {
		t.Errorf("regular butterfly drop rate %.4f, expected collapse under transpose", regular)
	}
	if regular < 20*random {
		t.Errorf("expansion advantage only %.1fx (random %.4f vs regular %.4f)",
			regular/random, random, regular)
	}
}

func TestWorstCaseGapGrowsWithScale(t *testing.T) {
	// The regular butterfly's transpose congestion worsens with scale
	// (sqrt(N) flows share a switch), while the randomized network stays
	// flat — the scalability half of the immunity claim.
	gap := func(nodes int) float64 {
		pat := traffic.Transpose(nodes)
		regular := rawDropRate(t, Config{Nodes: nodes, Multiplicity: 4, Seed: 3, Topology: "butterfly"}, pat, 60)
		return regular
	}
	small, large := gap(64), gap(1024)
	if large <= small {
		t.Errorf("regular-wiring transpose drops did not grow with scale: %.3f -> %.3f", small, large)
	}
}

func TestRandomizedBeatsRegularOnBenignTrafficToo(t *testing.T) {
	// Even for a random permutation the regular butterfly cannot use its
	// m wires to dodge congested switches, so randomization should never
	// lose.
	pat := traffic.RandomPermutation(256, 5)
	random := rawDropRate(t, Config{Nodes: 256, Multiplicity: 3, Seed: 3}, pat, 120)
	regular := rawDropRate(t, Config{Nodes: 256, Multiplicity: 3, Seed: 3, Topology: "butterfly"}, pat, 120)
	if random > regular+0.005 {
		t.Errorf("randomized wiring worse on benign traffic: %.4f vs %.4f", random, regular)
	}
}

func TestAckPriorityMatters(t *testing.T) {
	// ACKs jump the transmit queue; without that (modelled here by the
	// observation that ACK latency stays near one RTT even while data
	// queues), the retransmission timer would misfire constantly. Check
	// that under load the mean ACK round trip stays well below the RTO.
	n := mustNew(t, Config{Nodes: 128, Multiplicity: 4, Seed: 8})
	ol := traffic.OpenLoop{
		Pattern:        traffic.RandomPermutation(128, 4),
		Load:           0.7,
		PacketsPerNode: 100,
		Seed:           6,
	}
	ol.Start(n)
	n.Engine().Run()
	if n.Stats.AckLatency.N() == 0 {
		t.Fatal("no ACK latencies recorded")
	}
	meanRTT := n.Stats.AckLatency.Mean() // ns
	rtoNS := float64(n.rto.Nanoseconds())
	if meanRTT > rtoNS {
		t.Errorf("mean ACK RTT %.0f ns exceeds RTO %.0f ns: spurious retransmissions everywhere", meanRTT, rtoNS)
	}
	// Spurious retransmission rate should be low at 0.7 load.
	spurious := float64(n.Stats.Duplicates) / float64(n.Stats.Injected)
	if spurious > 0.05 {
		t.Errorf("duplicate rate %.3f suggests RTO/ACK-priority problems", spurious)
	}
}

func TestMultiplicityLatencyTradeoff(t *testing.T) {
	// Table V's other face: multiplicity raises the per-stage switch
	// latency, so at *zero* contention higher m is slightly slower. The
	// config must pick the Table V latency for the chosen m.
	lat := func(m int) float64 {
		n := mustNew(t, Config{Nodes: 64, Multiplicity: m, Seed: 2})
		var got float64
		n.OnDeliver(func(p *netsim.Packet, at sim.Time) { got = float64(at.Sub(p.Created).Nanoseconds()) })
		n.Engine().At(0, func() { n.Send(1, 62, 0) })
		n.Engine().Run()
		return got
	}
	l1, l5 := lat(1), lat(5)
	// 6 stages x (2.25-0.14) ns = 12.7 ns difference expected.
	diff := l5 - l1
	if diff < 10 || diff > 15 {
		t.Errorf("zero-load latency difference m=5 vs m=1 = %.1f ns, want ~12.7", diff)
	}
}

func TestOmegaIsomorphism(t *testing.T) {
	// Sec IV: "we expect Baldur to achieve similar results with other
	// multi-stage topologies (e.g., Benes, Omega) because many
	// multi-stage networks are largely isomorphic". Compare the two
	// deterministic variants (regular butterfly and omega) under the
	// benign random permutation: their drop rates must be in the same
	// regime; and omega, like the butterfly, must be vulnerable to an
	// adversarial permutation while the randomized network is not.
	uniform := traffic.RandomPermutation(256, 5)
	bf := rawDropRate(t, Config{Nodes: 256, Multiplicity: 2, Topology: "butterfly"}, uniform, 100)
	om := rawDropRate(t, Config{Nodes: 256, Multiplicity: 2, Topology: "omega"}, uniform, 100)
	lo, hi := bf/3-0.01, bf*3+0.01
	if om < lo || om > hi {
		t.Errorf("omega drop %.4f not within 3x of butterfly %.4f on uniform traffic", om, bf)
	}

	adversarial := traffic.Transpose(256)
	omAdv := rawDropRate(t, Config{Nodes: 256, Multiplicity: 4, Topology: "omega"}, adversarial, 100)
	random := rawDropRate(t, Config{Nodes: 256, Multiplicity: 4}, adversarial, 100)
	if omAdv < 5*random {
		t.Errorf("omega (deterministic) not clearly worse than randomized on transpose: %.4f vs %.4f", omAdv, random)
	}
}

func TestUnknownTopologyRejected(t *testing.T) {
	if _, err := New(Config{Nodes: 64, Topology: "torus"}); err == nil {
		t.Error("unknown topology accepted")
	}
}

func TestBenesImmuneViaRoutingRandomness(t *testing.T) {
	// A Benes network with *regular* wiring must still be immune to the
	// adversarial transpose, because its Valiant distribution stages
	// randomize routing even when the wiring is deterministic. This
	// separates the two sources of randomness the paper's multi-butterfly
	// combines: the butterfly needs random wiring; Benes does not.
	adversarial := traffic.Transpose(256)
	benesRegular := rawDropRate(t, Config{Nodes: 256, Multiplicity: 4, Topology: "benes-regular"}, adversarial, 80)
	butterflyRegular := rawDropRate(t, Config{Nodes: 256, Multiplicity: 4, Topology: "butterfly"}, adversarial, 80)
	if benesRegular > 0.05 {
		t.Errorf("regular-wired Benes drop %.4f on transpose; Valiant should make it benign", benesRegular)
	}
	if butterflyRegular < 5*benesRegular {
		t.Errorf("regular butterfly (%.4f) not clearly worse than regular Benes (%.4f)",
			butterflyRegular, benesRegular)
	}
}

func TestBenesSimilarToMultiButterfly(t *testing.T) {
	// Sec IV: Baldur should achieve similar results on Benes. Compare
	// zero-ish-load latency (Benes pays ~2x the stages) and drop rates on
	// a benign pattern.
	uniform := traffic.RandomPermutation(256, 5)
	mbDrop := rawDropRate(t, Config{Nodes: 256, Multiplicity: 4}, uniform, 80)
	benesDrop := rawDropRate(t, Config{Nodes: 256, Multiplicity: 4, Topology: "benes"}, uniform, 80)
	if benesDrop > mbDrop+0.02 {
		t.Errorf("benes drop %.4f much worse than multibutterfly %.4f", benesDrop, mbDrop)
	}
}

func TestBenesDeliversExactlyOnce(t *testing.T) {
	n := mustNew(t, Config{Nodes: 64, Multiplicity: 2, Topology: "benes", Seed: 4})
	seen := map[uint64]int{}
	n.OnDeliver(func(p *netsim.Packet, _ sim.Time) { seen[p.ID]++ })
	ol := traffic.OpenLoop{
		Pattern:        traffic.Bisection(64, 3),
		Load:           0.7,
		PacketsPerNode: 30,
		Seed:           6,
	}
	ol.Start(n)
	n.Engine().Run()
	if len(seen) != 64*30 {
		t.Fatalf("unique = %d, want %d", len(seen), 64*30)
	}
	for id, c := range seen {
		if c != 1 {
			t.Errorf("packet %d delivered %d times", id, c)
		}
	}
}

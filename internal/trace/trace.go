// Package trace provides the communication-trace engine used for the
// paper's HPC workload evaluation (Sec V-A). The paper replays DUMPI traces
// of four DOE Design Forward mini-apps; those traces are not
// redistributable, so this package supplies (a) a replay engine with
// MPI-like blocking semantics (Send / Recv / Compute) that runs against any
// netsim.Network, and (b) synthetic generators that reproduce the
// communication *structure* of four Design Forward applications: AMG
// (3-D 6-point halo exchange), BigFFT (phased personalized all-to-all),
// CrystalRouter (ring neighbourhoods with heavy pairwise transfers), and
// FillBoundary "FB" (AMR boundary fill: irregular many-to-few exchanges that
// concentrate load — the pattern that degrades dragonfly and fat-tree most
// in the paper's Fig 7).
package trace

import (
	"fmt"
	"math"
	"strings"

	"baldur/internal/netsim"
	"baldur/internal/sim"
)

// OpKind enumerates trace operations.
type OpKind uint8

// Trace operation kinds.
const (
	OpSend    OpKind = iota // send Bytes to Peer (non-blocking, eager)
	OpRecv                  // block until Bytes from Peer have arrived
	OpCompute               // local computation for Dur
)

// Op is one trace operation of a rank.
type Op struct {
	Kind  OpKind
	Peer  int
	Bytes int
	Dur   sim.Duration
}

// Program is the operation list of one rank.
type Program []Op

// Workload is a complete communication trace: one program per node.
type Workload struct {
	Name     string
	Programs []Program
	// PacketSize is the MTU messages are segmented into (default 512).
	PacketSize int
}

func (w *Workload) packetSize() int {
	if w.PacketSize == 0 {
		return 512
	}
	return w.PacketSize
}

// packets returns how many packets a message of b bytes occupies.
func (w *Workload) packets(b int) int {
	ps := w.packetSize()
	n := (b + ps - 1) / ps
	if n < 1 {
		n = 1
	}
	return n
}

// Validate checks that every Recv is matched by equal send volume on the
// pair, so the replay cannot deadlock on missing data.
func (w *Workload) Validate() error {
	type pair struct{ a, b int }
	sent := map[pair]int{}
	recv := map[pair]int{}
	for rank, prog := range w.Programs {
		for i, op := range prog {
			switch op.Kind {
			case OpSend:
				if op.Peer < 0 || op.Peer >= len(w.Programs) || op.Peer == rank {
					return fmt.Errorf("trace %s: rank %d op %d: bad peer %d", w.Name, rank, i, op.Peer)
				}
				sent[pair{rank, op.Peer}] += w.packets(op.Bytes)
			case OpRecv:
				if op.Peer < 0 || op.Peer >= len(w.Programs) || op.Peer == rank {
					return fmt.Errorf("trace %s: rank %d op %d: bad peer %d", w.Name, rank, i, op.Peer)
				}
				recv[pair{op.Peer, rank}] += w.packets(op.Bytes)
			}
		}
	}
	for pr, nrecv := range recv {
		if sent[pr] < nrecv {
			return fmt.Errorf("trace %s: rank %d expects %d packets from %d but only %d sent",
				w.Name, pr.b, nrecv, pr.a, sent[pr])
		}
	}
	return nil
}

// TotalMessages returns the number of Send operations in the workload.
func (w *Workload) TotalMessages() int {
	n := 0
	for _, prog := range w.Programs {
		for _, op := range prog {
			if op.Kind == OpSend {
				n++
			}
		}
	}
	return n
}

// Stats reports the outcome of a replay.
type Stats struct {
	Makespan  sim.Duration // virtual time until the last rank finished (0 unless Completed)
	Packets   uint64       // data packets injected
	Completed bool         // all ranks ran their program to the end
	// Stuck is non-nil when the replay stopped making progress: either the
	// watchdog tripped (events kept executing but no rank advanced for a
	// full window) or the engine drained with ranks still blocked
	// (deadlock). It names the blocked ranks and their pending Recv peers.
	// A run cut at a deadline with work still queued has no report.
	Stuck *StuckReport
}

// StuckRank describes one rank that has not run its program to the end.
type StuckRank struct {
	Rank    int
	PC      int  // program counter it is parked at
	Waiting bool // blocked in a Recv (else: parked mid-compute or never resumed)
	Peer    int  // the Recv's source rank, when Waiting
	Need    int  // packets the Recv still requires, when Waiting
}

// StuckReport diagnoses a replay that stopped making progress.
type StuckReport struct {
	At sim.Time // virtual time of the diagnosis
	// Window is the no-progress window that tripped the watchdog; 0 when
	// the engine drained outright (Deadlock).
	Window   sim.Duration
	Deadlock bool
	Ranks    []StuckRank
}

// String renders the report as an actionable one-paragraph diagnostic.
func (s *StuckReport) String() string {
	var b strings.Builder
	if s.Deadlock {
		fmt.Fprintf(&b, "trace: deadlock at t=%s: engine drained with %d rank(s) blocked:",
			s.At.String(), len(s.Ranks))
	} else {
		fmt.Fprintf(&b, "trace: no rank progressed for %s (t=%s), %d rank(s) blocked:",
			s.Window.String(), s.At.String(), len(s.Ranks))
	}
	const maxListed = 16
	for i, r := range s.Ranks {
		if i == maxListed {
			fmt.Fprintf(&b, " … and %d more", len(s.Ranks)-maxListed)
			break
		}
		if r.Waiting {
			fmt.Fprintf(&b, " rank %d pc=%d awaits %d packet(s) from rank %d;", r.Rank, r.PC, r.Need, r.Peer)
		} else {
			fmt.Fprintf(&b, " rank %d pc=%d not waiting;", r.Rank, r.PC)
		}
	}
	return b.String()
}

// rankState is the replay state of one node.
type rankState struct {
	pc      int
	waiting bool // blocked in a Recv
	waitSrc int
	need    int // packets still needed by the current Recv
	pending map[int]int
	done    bool
}

// Replayer executes a workload on a network. It is driven from outside:
// Start schedules the ranks, netsim.Drive runs the network with Watch as its
// boundary hook, and Stats reports the outcome. Run does all three.
type Replayer struct {
	// Watchdog, when > 0, is the progress-watchdog window: if events keep
	// executing but no rank advances its program counter for this much
	// simulated time, the replay stops and Stats.Stuck reports the blocked
	// ranks and their pending Recv peers instead of spinning silently.
	// Watch checks it at run boundaries, so it trips at slice granularity.
	Watchdog sim.Duration

	net      netsim.Network
	w        *Workload
	ranks    []*rankState
	stats    Stats
	alive    int
	progress uint64 // counts rank program-counter advances

	// Watchdog state: progress and events seen at the previous boundary,
	// and where the current no-progress window began.
	lastProg, lastEvents uint64
	windowAt             sim.Time
}

// NewReplayer wires a replayer to the network. The workload's node count
// must not exceed the network's.
func NewReplayer(net netsim.Network, w *Workload) (*Replayer, error) {
	if len(w.Programs) > net.NumNodes() {
		return nil, fmt.Errorf("trace: workload has %d ranks, network %d nodes",
			len(w.Programs), net.NumNodes())
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	r := &Replayer{net: net, w: w}
	r.ranks = make([]*rankState, len(w.Programs))
	for i := range r.ranks {
		r.ranks[i] = &rankState{pending: map[int]int{}}
	}
	r.alive = len(w.Programs)
	net.OnDeliver(r.onDeliver)
	return r, nil
}

// Run replays the workload to completion, or until the watchdog trips, and
// returns the statistics. It drives the network's engine, so attach
// collectors beforehand.
func (r *Replayer) Run() Stats {
	r.Start()
	// Drive fails only on a fault script's error; this run has none.
	more, _ := netsim.Drive(r.net, sim.Time(math.MaxInt64), netsim.DriveOptions{Observe: r.Watch})
	return r.Stats(more)
}

// Start schedules every rank's first step at the current time.
func (r *Replayer) Start() {
	eng := r.net.Engine()
	r.windowAt, r.lastEvents = eng.Now(), netsim.Events(r.net)
	eng.At(eng.Now(), func() {
		for rank := range r.ranks {
			r.step(rank)
		}
	})
}

// Watch is the progress watchdog, a netsim.DriveOptions.Observe hook called
// at every run boundary. A boundary restarts the no-progress window when
// some rank advanced or no event ran since the previous boundary (an idle
// gap, such as a long compute op). Once the window reaches Watchdog, Watch
// records a stuck report and returns true to stop the run — but never on a
// drained run, which Stats reports as a deadlock.
func (r *Replayer) Watch(at sim.Time, drained bool) (stop bool) {
	ev := netsim.Events(r.net)
	idle := ev == r.lastEvents
	r.lastEvents = ev
	if r.progress != r.lastProg || idle {
		r.lastProg, r.windowAt = r.progress, at
		return false
	}
	if r.Watchdog <= 0 || drained || at.Sub(r.windowAt) < r.Watchdog {
		return false
	}
	r.stats.Stuck = r.stuckReport(at, r.Watchdog, false)
	return true
}

// Stats returns the outcome of the replay once its run stopped; more is
// whether events were still queued (what netsim.Drive returned). A run that
// drained with ranks still blocked is a deadlock (e.g. a lossy run that
// exhausted retransmissions, or a circular Recv); one stopped with work
// queued — by the watchdog or a deadline — is not.
func (r *Replayer) Stats(more bool) Stats {
	r.stats.Completed = r.alive == 0
	if !r.stats.Completed && !more && r.stats.Stuck == nil {
		r.stats.Stuck = r.stuckReport(r.net.Engine().Now(), 0, true)
	}
	return r.stats
}

// stuckReport snapshots every unfinished rank.
func (r *Replayer) stuckReport(at sim.Time, window sim.Duration, deadlock bool) *StuckReport {
	rep := &StuckReport{At: at, Window: window, Deadlock: deadlock}
	for rank, st := range r.ranks {
		if st.done {
			continue
		}
		rep.Ranks = append(rep.Ranks, StuckRank{
			Rank:    rank,
			PC:      st.pc,
			Waiting: st.waiting,
			Peer:    st.waitSrc,
			Need:    st.need,
		})
	}
	return rep
}

// step advances a rank until it blocks or finishes.
func (r *Replayer) step(rank int) {
	st := r.ranks[rank]
	prog := r.w.Programs[rank]
	for !st.done {
		if st.pc >= len(prog) {
			st.done = true
			r.alive--
			r.progress++
			if r.alive == 0 {
				r.stats.Makespan = r.net.Engine().Now().Sub(0)
			}
			return
		}
		op := prog[st.pc]
		switch op.Kind {
		case OpSend:
			n := r.w.packets(op.Bytes)
			last := op.Bytes - (n-1)*r.w.packetSize()
			for i := 0; i < n; i++ {
				size := r.w.packetSize()
				if i == n-1 && last > 0 {
					size = last
				}
				r.net.Send(rank, op.Peer, size)
				r.stats.Packets++
			}
			st.pc++
			r.progress++
		case OpCompute:
			st.pc++
			r.progress++
			if op.Dur > 0 {
				r.net.Engine().After(op.Dur, func() { r.step(rank) })
				return
			}
		case OpRecv:
			need := r.w.packets(op.Bytes)
			avail := st.pending[op.Peer]
			if avail >= need {
				st.pending[op.Peer] = avail - need
				st.pc++
				r.progress++
				continue
			}
			st.pending[op.Peer] = 0
			st.need = need - avail
			st.waitSrc = op.Peer
			st.waiting = true
			return
		default:
			panic(fmt.Sprintf("trace: unknown op kind %d", op.Kind))
		}
	}
}

func (r *Replayer) onDeliver(p *netsim.Packet, _ sim.Time) {
	if p.Dst >= len(r.ranks) {
		return
	}
	st := r.ranks[p.Dst]
	if st.waiting && st.waitSrc == p.Src {
		st.need--
		if st.need == 0 {
			st.waiting = false
			st.pc++
			r.progress++
			r.step(p.Dst)
		}
		return
	}
	st.pending[p.Src]++
}

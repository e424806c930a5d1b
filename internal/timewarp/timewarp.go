// Package timewarp implements the rollback-based optimistic simulator the
// paper positions its asynchronous algorithm against (Arnold's parallel
// simulator, built on Jefferson's Virtual Time): elements process input
// events speculatively in local-time order; a straggler event arriving in
// an element's past forces a rollback that restores a state snapshot and
// cancels previously sent events with anti-messages.
//
// The paper's two criticisms are made measurable here: the per-worker
// counters record rollbacks and cancelled events ("performance primarily
// limited by detecting and processing the rollbacks"), and Report.PeakLog
// records the high-water mark of saved state — log entries plus
// uncommitted events ("the rollback mechanism leads to a major state
// storage problem").
//
// Execution is windowed: workers process optimistically within a round,
// then synchronise to exchange cross-partition events, compute the global
// virtual time (GVT) and commit everything behind it — a standard
// synchronous-GVT Time Warp organisation. Committed histories are
// identical to the conservative simulators', which the tests enforce.
package timewarp

import (
	"context"

	"parsim/internal/barrier"
	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/guard"
	"parsim/internal/logic"
	"parsim/internal/partition"
	"parsim/internal/stats"
)

// defaultStepsPerRound caps optimistic progress between GVT rounds, in
// element steps per worker.
const defaultStepsPerRound = 2048

// stepsPerRound is the GVT window a run takes. Test hook: the optimism
// tests narrow it to force rollbacks.
var stepsPerRound = defaultStepsPerRound

// twEvent is a (possibly anti-) message carrying one node change.
type twEvent struct {
	node circuit.NodeID
	t    circuit.Time
	v    logic.Value
	id   int64 // matches positive and anti messages
	anti bool
}

type sim struct {
	c   *circuit.Circuit
	cfg engine.Config
	p   int

	rts       []*elemRT // indexed by ElemID (nil for generators)
	elemOwner []int
	owned     [][]circuit.ElemID
	mailbox   [][][]twEvent // [target][source]

	wks       []*twWorker
	bar       *barrier.Barrier
	gvt       circuit.Time
	done      bool
	roundsRun int64
	chaos     *guard.ChaosProbe // captured once; nil on production runs

	final []logic.Value

	wc      []stats.WorkerCounters
	peakLog []int64
}

// eng registers the optimistic Time Warp simulator with the engine layer.
type eng struct{}

func (eng) Name() string { return "time-warp" }

func init() { engine.Register(eng{}, "timewarp", "tw", "optimistic") }

// Run simulates the circuit with optimistic rollback-based parallelism. The
// guard contains worker panics, worker 0 publishes the GVT as progress (a
// pinned GVT — the paper's livelock — therefore stalls out), and a trip
// aborts the round barrier so no survivor spins for a dead peer. When the
// run is cancelled worker 0 observes it in the GVT phase and declares the
// run done, so all workers commit what is behind the GVT and exit together
// at the end of the round, and the partial Report is returned.
func (e eng) Run(_ context.Context, c *circuit.Circuit, cfg engine.Config) (*engine.Report, error) {
	p := cfg.Workers
	parts := partition.Split(c, p, cfg.Strategy)
	s := &sim{
		c:         c,
		cfg:       cfg,
		p:         p,
		rts:       make([]*elemRT, len(c.Elems)),
		elemOwner: make([]int, len(c.Elems)),
		owned:     parts,
		mailbox:   make([][][]twEvent, p),
		bar:       barrier.New(p),
		final:     make([]logic.Value, len(c.Nodes)),
		wc:        make([]stats.WorkerCounters, p),
		peakLog:   make([]int64, p),
		chaos:     cfg.Guard().Chaos(),
	}
	cfg.Guard().OnTrip(s.bar.Abort)
	s.wks = make([]*twWorker, p)
	for w := range s.mailbox {
		s.mailbox[w] = make([][]twEvent, p)
		s.wks[w] = &twWorker{s: s, id: w}
	}
	for w, part := range parts {
		for _, id := range part {
			s.elemOwner[id] = w
			s.rts[id] = newElemRT(c, id)
		}
	}
	for _, g := range c.Generators() {
		s.elemOwner[g] = int(g) % p
	}
	for i := range c.Nodes {
		s.final[i] = logic.AllX(c.Nodes[i].Width)
	}

	// Seed: generators inject their full behaviour as initial events,
	// delivered directly (single-threaded, pre-start).
	var seedID int64 = -1 // negative ids: generator events, never cancelled
	for _, g := range c.Generators() {
		el := &c.Elems[g]
		n := el.Out[0]
		el.GenWaveform(cfg.Horizon, cfg.Guard().Cancelled, func(t circuit.Time, v logic.Value) {
			ev := twEvent{node: n, t: t, v: v, id: seedID}
			seedID--
			s.final[n] = v
			s.wc[0].NodeUpdates++
			if s.cfg.Probe != nil {
				s.cfg.Probe.OnChange(n, t, v)
			}
			for _, pr := range c.Nodes[n].Fanout {
				s.rts[pr.Elem].insertPort(s, 0, ev, int(pr.Port))
			}
		})
	}

	wall := engine.Gang(cfg, "time-warp round loop", s.worker)

	rep := &engine.Report{Final: s.final, GVTRounds: s.roundsRun, Stats: stats.Run{
		Algorithm: e.Name(),
		Circuit:   c.Name,
		Horizon:   cfg.Horizon,
		Workers:   p,
	}}
	for w := 0; w < p; w++ {
		s.wc[w].ModelCalls = s.wc[w].Evals
		rep.PeakLog = max(rep.PeakLog, s.peakLog[w])
	}
	rep.Stats.Aggregate(wall, s.wc)
	return rep, nil
}

// Package compiled implements the paper's second algorithm: the parallel
// unit-delay compiled-mode simulator. Every element is evaluated at every
// time step from a static partition, with one barrier per step. The "problem
// size" per step is maximal and load-balancing is easy for homogeneous gate
// circuits — at the price of wasted work whenever element activity is low,
// which is exactly the trade-off the paper's Figure 3 explores.
package compiled

import (
	"context"

	"parsim/internal/checkpoint"
	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/guard"
	"parsim/internal/logic"
	"parsim/internal/partition"
	"parsim/internal/stats"
)

type sim struct {
	c   *circuit.Circuit
	cfg engine.Config
	p   int

	buf   [2][]logic.Value // double-buffered node values
	state [][]logic.Value
	parts [][]circuit.ElemID

	wc    []stats.WorkerCounters
	chaos *guard.ChaosProbe // captured once; nil on production runs
	ls    *engine.Lockstep
}

// eng registers the compiled-mode simulator with the engine layer.
type eng struct{}

func (eng) Name() string { return "compiled" }

// Checkpoints makes eng an engine.Checkpointer: it snapshots at the
// per-step barrier, the quiescent point where every worker has finished the
// previous step and none has started the next, and a resumed run replays
// bit-identically to an uninterrupted one.
func (eng) Checkpoints() {}

// Run simulates the circuit in compiled mode and reports the node values
// after the final step. engine.Lockstep runs the step protocol: progress,
// the stop at the next step boundary on cancellation, the snapshot
// captures and the barrier a guard trip aborts.
func (e eng) Run(_ context.Context, c *circuit.Circuit, cfg engine.Config) (*engine.Report, error) {
	p := cfg.Workers
	s := &sim{
		c:     c,
		cfg:   cfg,
		p:     p,
		parts: partition.Split(c, p, cfg.Strategy),
		wc:    make([]stats.WorkerCounters, p),
		chaos: cfg.Guard().Chaos(),
	}
	s.ls = engine.NewLockstep(cfg, s.wc, s.fill)
	for side := range s.buf {
		s.buf[side] = make([]logic.Value, len(c.Nodes))
	}
	for i := range c.Nodes {
		x := logic.AllX(c.Nodes[i].Width)
		s.buf[0][i] = x
		s.buf[1][i] = x
	}
	s.state = make([][]logic.Value, len(c.Elems))
	for i := range c.Elems {
		if n := c.Elems[i].NumStateVals(); n > 0 {
			s.state[i] = make([]logic.Value, n)
			c.Elems[i].InitState(s.state[i])
		}
	}
	resumed, err := s.ls.Begin(s.restore)
	if err != nil {
		return nil, err
	}
	if !resumed {
		// Generators assume their t=0 values before the first step.
		for _, g := range c.Generators() {
			el := &c.Elems[g]
			v := el.GenValueAt(0)
			n := el.Out[0]
			if !v.Equal(s.buf[0][n]) {
				s.buf[0][n] = v
				s.buf[1][n] = v // both sides start consistent
				if cfg.Probe != nil {
					cfg.Probe.OnChange(n, 0, v)
				}
				s.wc[0].NodeUpdates++
			}
		}
	}

	wall := engine.Gang(cfg, "compiled step loop", s.worker)
	steps, side, err := s.ls.Finish()
	if err != nil {
		return nil, err
	}
	rep := &engine.Report{Final: s.buf[side], Stats: stats.Run{
		Algorithm: e.Name() + "(" + cfg.Strategy.String() + ")",
		Circuit:   c.Name,
		Horizon:   cfg.Horizon,
		Workers:   p,
		TimeSteps: steps,
	}}
	for w := 0; w < p; w++ {
		s.wc[w].ModelCalls = s.wc[w].Evals
	}
	rep.Stats.Aggregate(wall, s.wc)
	return rep, nil
}

func init() { engine.Register(eng{}, "compiled-mode") }

func (s *sim) worker(id int) {
	part := s.parts[id]
	var gens []circuit.ElemID
	for i, g := range s.c.Generators() {
		if i%s.p == id {
			gens = append(gens, g)
		}
	}
	inBuf := make([]logic.Value, 8)
	outBuf := make([]logic.Value, 4)

	// Step t computes node values for t+1: read side t&1, write side
	// (t+1)&1. The final step is Horizon-2 -> values at Horizon-1.
	s.ls.Steps(id, func(t circuit.Time, row *stats.WorkerCounters) {
		cur := s.buf[t&1]
		next := s.buf[(t+1)&1]

		for _, g := range gens {
			el := &s.c.Elems[g]
			s.write(row, el.Out[0], t+1, el.GenValueAt(t+1), cur, next)
		}
		for _, eid := range part {
			el := &s.c.Elems[eid]
			row.Evals++
			if s.chaos != nil {
				s.chaos.Eval()
			}
			if cap(inBuf) < len(el.In) {
				inBuf = make([]logic.Value, len(el.In))
			}
			in := inBuf[:len(el.In)]
			for i, n := range el.In {
				in[i] = cur[n]
			}
			if cap(outBuf) < len(el.Out) {
				outBuf = make([]logic.Value, len(el.Out))
			}
			out := outBuf[:len(el.Out)]
			el.Eval(in, s.state[eid], out)
			if s.cfg.CostSpin > 0 {
				circuit.Spin(el.Cost * s.cfg.CostSpin)
			}
			for p, n := range el.Out {
				s.write(row, n, t+1, out[p], cur, next)
			}
		}
	})
}

// fill writes the engine's own snapshot sections at the top of a step:
// node values for that step and element state through the step before.
func (s *sim) fill(snap *checkpoint.Snapshot) {
	snap.PackScalar(s.buf[int(snap.Step)&1], s.state)
}

// restore rebuilds the engine's own state from a digest-verified snapshot
// (Lockstep commits the worker rows and the start step).
// Both buffer sides take the snapshot values: every driven node is fully
// rewritten each step and every undriven node stays constant, so the
// resumed double-buffer sequence matches the uninterrupted one exactly.
func (s *sim) restore(snap *checkpoint.Snapshot) error {
	vals, state, err := s.cfg.Ckpt().UnpackScalar(snap)
	if err != nil {
		return err
	}
	copy(s.buf[0], vals)
	copy(s.buf[1], vals)
	s.state = state
	return nil
}

// write stores a node's next value, recording a change when it differs from
// the current one. Only the node's single driver (or generator owner) calls
// this for a given node, so the slots race with nobody.
func (s *sim) write(row *stats.WorkerCounters, n circuit.NodeID, t circuit.Time, v logic.Value,
	cur, next []logic.Value) {
	next[n] = v
	if v.Equal(cur[n]) {
		return
	}
	row.NodeUpdates++
	if s.cfg.Probe != nil {
		s.cfg.Probe.OnChange(n, t, v)
	}
}

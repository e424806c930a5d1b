// Package compiled implements the paper's second algorithm: the parallel
// unit-delay compiled-mode simulator. Every element is evaluated at every
// time step from a static partition, with one barrier per step. The "problem
// size" per step is maximal and load-balancing is easy for homogeneous gate
// circuits — at the price of wasted work whenever element activity is low,
// which is exactly the trade-off the paper's Figure 3 explores.
package compiled

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"parsim/internal/barrier"
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
	bar   *barrier.Barrier

	wc     []stats.WorkerCounters
	cancel *engine.CancelFlag
	chaos  *guard.ChaosProbe // captured once; nil on production runs

	startT circuit.Time // resume step (0 for a fresh run)
	// stopAt, when > 0, is the step at which every worker exits. Worker 0
	// publishes it during step stopAt-1; the step barrier makes the write
	// visible to all workers before any of them reaches step stopAt, so the
	// whole gang leaves the loop at the same step boundary and nobody is
	// left waiting on the barrier.
	stopAt atomic.Int64
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
// after the final step. The guard contains worker panics, worker 0
// publishes the current step as progress, and a trip aborts the step
// barrier so no survivor spins for a dead peer. When ctx is cancelled all
// workers stop together at the next time step and the partial Report is
// returned with ctx.Err().
func (e eng) Run(ctx context.Context, c *circuit.Circuit, cfg engine.Config) (*engine.Report, error) {
	p := cfg.Workers
	s := &sim{
		c:      c,
		cfg:    cfg,
		p:      p,
		parts:  partition.Split(c, p, cfg.Strategy),
		bar:    barrier.New(p),
		wc:     make([]stats.WorkerCounters, p),
		cancel: engine.WatchCancel(ctx),
		chaos:  cfg.Guard.Chaos(),
	}
	defer s.cancel.Release()
	cfg.Guard.OnTrip(s.bar.Abort)
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
	resumed, err := cfg.Ckpt.Begin(p, s.restore)
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

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer cfg.Guard.Recover(w, "compiled step loop")
			s.worker(w)
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)

	steps := int64(cfg.Horizon)
	final := s.buf[int(cfg.Horizon-1)&1]
	if cfg.Horizon <= 0 {
		final = s.buf[0]
	}
	sa := s.stopAt.Load()
	if sa > 0 && circuit.Time(sa) < cfg.Horizon-1 {
		// Cancelled: the last completed step wrote values for time sa.
		steps = sa + 1
		final = s.buf[int(sa)&1]
	}
	if err := cfg.Ckpt.Drain(sa, s.cancel.Cancelled(), s.wc, s.fill); err != nil {
		return nil, err
	}
	rep := &engine.Report{Final: final, Run: stats.Run{
		Algorithm: e.Name() + "(" + cfg.Strategy.String() + ")",
		Circuit:   c.Name,
		Horizon:   cfg.Horizon,
		Workers:   p,
		TimeSteps: steps,
	}}
	for w := 0; w < p; w++ {
		s.wc[w].ModelCalls = s.wc[w].Evals
	}
	rep.Run.Aggregate(wall, s.wc)
	return rep, s.cancel.Err(ctx)
}

func init() { engine.Register(eng{}, "compiled-mode") }

func (s *sim) worker(id int) {
	var sense barrier.Sense
	var idle time.Duration
	defer func() { s.wc[id].Idle += idle }()

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
	for t := s.startT; t < s.cfg.Horizon-1; t++ {
		if sa := s.stopAt.Load(); sa > 0 && t >= circuit.Time(sa) {
			return
		}
		if ck := s.cfg.Ckpt; ck.Due(int64(t)) && !ck.Cross(id, int64(t), s.bar, &sense, s.wc, s.fill) {
			return
		}
		if id == 0 {
			s.cfg.Guard.Progress(int64(t))
			if s.cancel.Cancelled() {
				s.stopAt.CompareAndSwap(0, int64(t)+1)
			}
		}
		cur := s.buf[t&1]
		next := s.buf[(t+1)&1]

		for _, g := range gens {
			el := &s.c.Elems[g]
			s.write(id, el.Out[0], t+1, el.GenValueAt(t+1), cur, next)
		}
		for _, eid := range part {
			el := &s.c.Elems[eid]
			s.wc[id].Evals++
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
				s.write(id, n, t+1, out[p], cur, next)
			}
		}

		t0 := time.Now()
		s.wc[id].BarrierWaits++
		ok := s.bar.Wait(&sense)
		idle += time.Since(t0)
		if !ok {
			return
		}
	}
}

// fill writes the engine's own snapshot sections at the top of a step:
// node values for that step and element state through the step before.
func (s *sim) fill(snap *checkpoint.Snapshot) {
	snap.PackScalar(s.buf[int(snap.Step)&1], s.state)
}

// restore rebuilds the engine's own state from a digest-verified snapshot.
// Both buffer sides take the snapshot values: every driven node is fully
// rewritten each step and every undriven node stays constant, so the
// resumed double-buffer sequence matches the uninterrupted one exactly.
func (s *sim) restore(snap *checkpoint.Snapshot) error {
	vals, state, err := s.cfg.Ckpt.UnpackScalar(snap)
	if err != nil {
		return err
	}
	copy(s.buf[0], vals)
	copy(s.buf[1], vals)
	s.state = state
	copy(s.wc, snap.Workers)
	s.startT = circuit.Time(snap.Step)
	return nil
}

// write stores a node's next value, recording a change when it differs from
// the current one. Only the node's single driver (or generator owner) calls
// this for a given node, so the slots race with nobody.
func (s *sim) write(id int, n circuit.NodeID, t circuit.Time, v logic.Value,
	cur, next []logic.Value) {
	next[n] = v
	if v.Equal(cur[n]) {
		return
	}
	s.wc[id].NodeUpdates++
	if s.cfg.Probe != nil {
		s.cfg.Probe.OnChange(n, t, v)
	}
}

// Package codegen implements the statically compiled ("jit") simulator:
// the circuit's levelized schedule is lowered once, at run start, into a
// per-level program of branch-free word-op batches over a struct-of-arrays
// state layout, and the step loop then executes that program with one
// sense-reversing barrier per unit-delay step across the workers —
// Manticore's static bulk-synchronous schedule on a general-purpose
// machine, with its super-step grown to the whole step.
//
// Node state lives in two flat []uint64 slabs per buffer side (value and
// unknown planes), indexed by a compile-time node numbering ordered by
// owning worker and then by schedule level, so each worker writes one dense
// stripe and each level a dense run inside it. The 1- and 2-input gates —
// the bulk of every gate-level netlist — run as fused batch loops with no
// per-element dispatch at all; every other kind runs through the batched
// engine's proven plane-op kernels (bit-sliced mul/alu/rom/ram included)
// devirtualized into the level sequence. Like the vector engine, N stimulus
// lanes advance together (default 1, the scalar-identical lane), and the
// unit-delay double buffer makes levels a pure batching and locality
// device: nothing inside a step reads that step's writes, so no barrier
// separates them at any worker count.
package codegen

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"parsim/internal/barrier"
	"parsim/internal/checkpoint"
	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/guard"
	"parsim/internal/logic"
	"parsim/internal/stats"
	"parsim/internal/trace"
	"parsim/internal/vector"
)

// Options configures a compiled run.
type Options struct {
	Workers  int          // parallel workers; >= 1
	Horizon  circuit.Time // simulate unit-delay steps t in [0, Horizon)
	Probe    trace.Probe  // optional observer of lane ProbeLane; concurrency-safe
	CostSpin int64        // if > 0, burn CostSpin x element Cost per evaluation
	Guard    *guard.Supervisor

	// Lanes is the number of live stimulus lanes (1..logic.MaxWideLanes;
	// 0 defaults to 1 — unlike the vector engine, jit is first a scalar
	// replacement for the compiled engine, and widens on request).
	Lanes int
	// LaneStride offsets rand/gray generator seeds per lane, exactly as
	// the vector engine does. 0 defaults to 1; lane 0 keeps the original
	// seed and is bit-identical to a scalar run.
	LaneStride int64
	// ProbeLane selects the lane Probe observes and Final reports.
	ProbeLane int

	// Checkpoint asks for periodic snapshots at the per-step barrier.
	Checkpoint checkpoint.Plan
	// Resume continues from a verified snapshot, bit-identically.
	Resume *checkpoint.Snapshot
}

// Result is the outcome of a compiled run.
type Result struct {
	Run stats.Run
	// Final holds lane ProbeLane's node values after the last step.
	Final []logic.Value
	// LaneFinal holds every lane's final node values.
	LaneFinal [][]logic.Value
}

// planeBuf is one buffer side: the flat struct-of-arrays slabs plus the
// per-plane views the reused kernels and generators run over. planes[p]
// aliases v[p*words:(p+1)*words] / u[...], so batch loops and kernels see
// the same memory.
type planeBuf struct {
	v, u   []uint64
	planes []logic.WidePlane
}

func newPlaneBuf(n, words int) planeBuf {
	v := make([]uint64, n*words)
	u := make([]uint64, n*words)
	ps := make([]logic.WidePlane, n)
	for p := range ps {
		lo, hi := p*words, (p+1)*words
		ps[p] = logic.WidePlane{V: v[lo:hi:hi], U: u[lo:hi:hi]}
	}
	return planeBuf{v: v, u: u, planes: ps}
}

type sim struct {
	c    *circuit.Circuit
	opts Options
	p    int

	prog     *program
	words    int
	laneMask []uint64

	buf [2]planeBuf // double-buffered node planes
	bar *barrier.Barrier

	wc     []stats.WorkerCounters
	cancel *engine.CancelFlag
	chaos  *guard.ChaosProbe
	// stopAt, when > 0, is the step at which every worker exits; worker 0
	// publishes it during step stopAt-1 and a barrier orders the write.
	stopAt atomic.Int64

	startT  circuit.Time
	ckptW   *checkpoint.Writer
	ckptErr error
}

// Run simulates the circuit with the statically compiled engine.
func Run(c *circuit.Circuit, opts Options) (*Result, error) {
	return RunContext(context.Background(), c, opts)
}

// RunContext is Run with cancellation: when ctx is cancelled all workers
// stop together at the next time step and the partial result is returned
// with ctx.Err().
func RunContext(ctx context.Context, c *circuit.Circuit, opts Options) (*Result, error) {
	if err := engine.ValidateWorkers(opts.Workers); err != nil {
		return nil, err
	}
	if opts.Lanes == 0 {
		opts.Lanes = 1
	}
	if opts.Lanes < 1 || opts.Lanes > logic.MaxWideLanes {
		return nil, fmt.Errorf("codegen: lanes %d out of range [1,%d]", opts.Lanes, logic.MaxWideLanes)
	}
	if opts.LaneStride == 0 {
		opts.LaneStride = 1
	}
	if opts.ProbeLane < 0 || opts.ProbeLane >= opts.Lanes {
		return nil, fmt.Errorf("codegen: probe lane %d outside [0,%d)", opts.ProbeLane, opts.Lanes)
	}
	p := opts.Workers
	s := &sim{
		c:        c,
		opts:     opts,
		p:        p,
		prog:     compileProgram(c, p, opts.Lanes, opts.LaneStride),
		words:    logic.PlaneWords(opts.Lanes),
		laneMask: logic.LaneMasks(opts.Lanes),
		bar:      barrier.New(p),
		wc:       make([]stats.WorkerCounters, p),
		cancel:   engine.WatchCancel(ctx),
		chaos:    opts.Guard.Chaos(),
	}
	defer s.cancel.Release()
	opts.Guard.OnTrip(s.bar.Abort)

	for side := range s.buf {
		s.buf[side] = newPlaneBuf(s.prog.total, s.words)
		for i := range s.buf[side].planes {
			s.buf[side].planes[i].Fill(logic.X)
		}
	}
	if opts.Resume != nil {
		// The snapshot replaces the t=0 initialisation wholesale, exactly
		// as in the vector engine: both buffer sides take the checkpointed
		// planes, kernel state and counters resume, and the generator init
		// below is skipped (already counted in the restored counters).
		if err := s.restore(opts.Resume); err != nil {
			return nil, err
		}
		return s.finish(ctx, c, opts)
	}
	// Generators assume their t=0 values before the first step: both
	// buffer sides start consistent, the probe sees lane ProbeLane, and a
	// change in any live lane counts one update.
	for w := range s.prog.gens {
		for i := range s.prog.gens[w] {
			g := &s.prog.gens[w][i]
			g.Write(0, s.buf[0].planes)
			o, wd := int(g.Out.Off), int(g.Out.W)
			var changed uint64
			for b := 0; b < wd; b++ {
				cv, nv := s.buf[1].planes[o+b], s.buf[0].planes[o+b]
				for ww := 0; ww < s.words; ww++ {
					changed |= ((cv.V[ww] ^ nv.V[ww]) | (cv.U[ww] ^ nv.U[ww])) & s.laneMask[ww]
				}
			}
			if changed == 0 {
				continue
			}
			for b := 0; b < wd; b++ {
				copy(s.buf[1].planes[o+b].V, s.buf[0].planes[o+b].V)
				copy(s.buf[1].planes[o+b].U, s.buf[0].planes[o+b].U)
			}
			s.wc[0].NodeUpdates++
			if opts.Probe != nil && s.probeLaneChangedInit(o, wd) {
				opts.Probe.OnChange(g.Out.Node, 0,
					logic.ExtractLaneWide(s.buf[0].planes[o:o+wd], opts.ProbeLane, wd))
			}
		}
	}
	return s.finish(ctx, c, opts)
}

// finish runs the worker gang over the (freshly initialised or restored)
// state and assembles the result.
func (s *sim) finish(ctx context.Context, c *circuit.Circuit, opts Options) (*Result, error) {
	p := s.p
	if opts.Checkpoint.Enabled() {
		s.ckptW = checkpoint.NewWriter(opts.Checkpoint)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer opts.Guard.Recover(w, "jit step loop")
			s.worker(w)
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)

	steps := int64(opts.Horizon)
	planes := s.buf[int(opts.Horizon-1)&1].planes
	if opts.Horizon <= 0 {
		planes = s.buf[0].planes
	}
	if sa := s.stopAt.Load(); sa > 0 && circuit.Time(sa) < opts.Horizon-1 {
		steps = sa + 1
		planes = s.buf[int(sa)&1].planes
	}
	if opts.Checkpoint.Enabled() && s.ckptErr == nil && s.cancel.Cancelled() {
		// A clean stop is a quiescent point; capture it so a drained run
		// can resume. A guard trip aborts the barrier without publishing
		// stopAt — that state is untrusted and deliberately not saved.
		if sa := s.stopAt.Load(); sa > 0 {
			if err := s.saveCheckpoint(circuit.Time(sa)); err != nil {
				s.ckptErr = err
			}
		}
	}
	if s.ckptW != nil {
		if !s.cancel.Cancelled() {
			s.ckptW.DiscardPending()
		}
		if cerr := s.ckptW.Close(); cerr != nil && s.ckptErr == nil {
			s.ckptErr = cerr
		}
	}
	if s.ckptErr != nil {
		return nil, s.ckptErr
	}
	res := &Result{
		Final:     s.extractLane(planes, opts.ProbeLane),
		LaneFinal: make([][]logic.Value, opts.Lanes),
	}
	for l := 0; l < opts.Lanes; l++ {
		res.LaneFinal[l] = s.extractLane(planes, l)
	}
	res.Run = stats.Run{
		Algorithm: fmt.Sprintf("jitx%d", opts.Lanes),
		Circuit:   c.Name,
		Horizon:   opts.Horizon,
		Workers:   p,
		TimeSteps: steps,
	}
	for w := 0; w < p; w++ {
		s.wc[w].ModelCalls = s.wc[w].Evals
	}
	res.Run.Aggregate(wall, s.wc)
	return res, s.cancel.Err(ctx)
}

// probeLaneChangedInit reports whether the probe lane's t=0 generator
// value differs from the all-X reset (V bit set or U bit clear).
func (s *sim) probeLaneChangedInit(o, w int) bool {
	lw, lb := s.opts.ProbeLane>>6, uint(s.opts.ProbeLane&63)
	for b := 0; b < w; b++ {
		nv := s.buf[0].planes[o+b]
		if nv.V[lw]>>lb&1 != 0 || nv.U[lw]>>lb&1 == 0 {
			return true
		}
	}
	return false
}

func (s *sim) extractLane(planes []logic.WidePlane, lane int) []logic.Value {
	vals := make([]logic.Value, len(s.c.Nodes))
	for n := range s.c.Nodes {
		w := s.c.Nodes[n].Width
		o := int(s.prog.off[n])
		vals[n] = logic.ExtractLaneWide(planes[o:o+w], lane, w)
	}
	return vals
}

func (s *sim) worker(id int) {
	var sense barrier.Sense
	// Per-step accounting stays in a local: adjacent workers' counter rows
	// share cache lines. The row is published where someone reads it —
	// before the barrier a checkpoint capture follows, and at exit.
	acc := s.wc[id]
	var idle time.Duration
	defer func() {
		acc.Idle += idle
		s.wc[id] = acc
	}()

	gens := s.prog.gens[id]
	work := s.prog.work[id]
	// With one plane word and no probe the per-span scan collapses to
	// noteLevel's single flat loop over the level's (offset, width) pairs.
	fastNote := s.opts.Probe == nil && s.words == 1

	// Step t computes node planes for t+1: read side t&1, write side
	// (t+1)&1. The final step is Horizon-2 -> values at Horizon-1. Nothing
	// inside a step reads this step's writes, so each worker sweeps its own
	// run of the schedule unordered and one barrier closes the step.
	for t := s.startT; t < s.opts.Horizon-1; t++ {
		if sa := s.stopAt.Load(); sa > 0 && t >= circuit.Time(sa) {
			return
		}
		// Periodic checkpoint at the step boundary: one extra uncounted
		// barrier while worker 0 captures the quiesced state, exactly the
		// vector engine's protocol.
		if s.checkpointDue(t) {
			if id == 0 && s.ckptW.Ready() {
				if err := s.saveCheckpoint(t); err != nil {
					s.ckptErr = err // published by the barrier release below
				}
			}
			if !s.bar.Wait(&sense) {
				return
			}
			if s.ckptErr != nil {
				return
			}
		}
		if id == 0 {
			s.opts.Guard.Progress(int64(t))
			if s.cancel.Cancelled() {
				s.stopAt.CompareAndSwap(0, int64(t)+1)
			}
		}
		cur, next := &s.buf[t&1], &s.buf[(t+1)&1]

		for i := range gens {
			g := &gens[i]
			g.Write(t+1, next.planes)
			if s.noteSpan(g.Out, t+1, cur, next) {
				acc.NodeUpdates++
			}
		}
		for sl := range work {
			lw := &work[sl]
			acc.Evals += lw.elems
			if s.chaos != nil {
				for e := int64(0); e < lw.elems; e++ {
					s.chaos.Eval()
				}
			}
			for i := range lw.batches {
				lw.batches[i].run(cur.v, cur.u, next.v, next.u)
			}
			for i := range lw.kerns {
				lw.kerns[i].Run(cur.planes, next.planes)
			}
			if s.opts.CostSpin > 0 {
				circuit.Spin(lw.cost * s.opts.CostSpin)
			}
			if fastNote {
				acc.NodeUpdates += noteLevel(lw.noteOffs, cur.v, cur.u, next.v, next.u, s.laneMask[0])
				continue
			}
			for _, sp := range lw.spans {
				if s.noteSpan(sp, t+1, cur, next) {
					acc.NodeUpdates++
				}
			}
		}

		acc.BarrierWaits++
		if s.checkpointDue(t + 1) {
			s.wc[id] = acc
		}
		t0 := time.Now()
		ok := s.bar.Wait(&sense)
		idle += time.Since(t0)
		if !ok {
			return
		}
	}
}

// noteLevel is noteSpan's one-word, probe-free form: one flat loop over a
// level's (offset, width) pairs with no call or probe branch per span. At
// one plane word a node's plane index is its slab index, so the pairs feed
// the slabs directly.
func noteLevel(offs []int32, cv, cu, nv, nu []uint64, mask uint64) int64 {
	var updates int64
	for i := 0; i < len(offs); i += 2 {
		o, w := int(offs[i]), int(offs[i+1])
		for b := 0; b < w; b++ {
			if ((cv[o+b]^nv[o+b])|(cu[o+b]^nu[o+b]))&mask != 0 {
				updates++
				break
			}
		}
	}
	return updates
}

// noteSpan compares one output node's planes across the buffer sides,
// reporting a node update when any live lane changed and firing the probe
// when the observed lane did. It scans the flat slabs directly — this runs
// once per element per step, so the plane-struct indirection would cost as
// much as a small kernel.
func (s *sim) noteSpan(sp vector.OutSpan, t circuit.Time, cur, next *planeBuf) bool {
	o, w := int(sp.Off), int(sp.W)
	words := s.words
	var changed uint64
scan:
	for b := 0; b < w; b++ {
		i0 := (o + b) * words
		for ww := 0; ww < words; ww++ {
			changed |= ((cur.v[i0+ww] ^ next.v[i0+ww]) | (cur.u[i0+ww] ^ next.u[i0+ww])) & s.laneMask[ww]
			if changed != 0 {
				break scan // one changed live lane counts; no need to scan on
			}
		}
	}
	if changed == 0 {
		return false
	}
	if s.opts.Probe == nil {
		return true
	}
	lw, lb := s.opts.ProbeLane>>6, uint(s.opts.ProbeLane&63)
	var probeChanged uint64
	for b := 0; b < w; b++ {
		i0 := (o+b)*words + lw
		probeChanged |= ((cur.v[i0] ^ next.v[i0]) | (cur.u[i0] ^ next.u[i0])) & s.laneMask[lw]
	}
	if probeChanged>>lb&1 != 0 {
		s.opts.Probe.OnChange(sp.Node, t,
			logic.ExtractLaneWide(next.planes[o:o+w], s.opts.ProbeLane, w))
	}
	return true
}

// Package vector is the levelized plane core: the paper's unit-delay
// compiled-mode algorithm (every element every step, double buffer, one
// barrier per step) over N independent stimulus lanes, 64 lanes per machine
// word and as many words per plane as the run requests. The registry names
// "vector" and "jit" both run it; they differ only in the lane count a run
// gets when it asks for none (64 and 1).
//
// The circuit's levelized schedule is lowered once, at run start, into a
// per-level program of branch-free word-op batches over a struct-of-arrays
// state layout, and the step loop then executes that program with one
// sense-reversing barrier per unit-delay step across the workers —
// Manticore's static bulk-synchronous schedule on a general-purpose
// machine, with its super-step grown to the whole step.
//
// Node state lives in two flat []uint64 slabs per buffer side (value and
// unknown planes), indexed by a compile-time node numbering ordered by
// owning worker and then by schedule level, so each worker writes one dense
// stripe and each level a dense run inside it. The 1- and 2-input gates and
// the 2:1 mux — the bulk of every gate-level netlist — run as fused batch
// loops with no per-element dispatch at all (batch.go); every other kind
// runs through a plane-op kernel (kernel.go, bitsliced.go) devirtualized
// into the level sequence. Lane 0 replays the scalar stimulus bit for bit;
// the remaining lanes carry seed-shifted variants or, in fault-simulation
// mode, injected stuck-at faults (fault.go). The unit-delay double buffer
// makes levels a pure batching and locality device: nothing inside a step
// reads that step's writes, so no barrier separates them at any worker
// count.
package vector

import (
	"context"
	"fmt"

	"parsim/internal/analyze"
	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/guard"
	"parsim/internal/logic"
	"parsim/internal/stats"
)

// eng is the core's registry adapter. The two registered values differ only
// in name and in the lane count a run gets when Config.Lanes is 0: "vector"
// is first a batched engine (one full plane word), "jit" first a scalar
// replacement for the compiled engine that widens on request.
type eng struct {
	name  string
	lanes int
}

var (
	vectorEng = eng{name: "vector", lanes: logic.MaxLanes}
	jitEng    = eng{name: "jit", lanes: 1}
)

func init() {
	engine.Register(vectorEng, "batched", "bit-parallel")
	engine.Register(jitEng, "codegen")
}

func (e eng) Name() string { return e.name }

// DefaultLanes makes eng an engine.LaneEngine.
func (e eng) DefaultLanes() int { return e.lanes }

// Checkpoints makes eng an engine.Checkpointer: the core snapshots at the
// per-step barrier, where every worker has finished the previous step and
// none has started the next, and resumes bit-identically lane for lane.
// Fault-simulation runs snapshot mid-pass, carrying the cross-pass
// detection state along.
func (eng) Checkpoints() {}

// Run simulates the circuit on the plane core; RunEngine has already
// checked the lane fields (engine.CheckLanes). Lane 0 always keeps the
// original seeds and is bit-identical to a scalar run. engine.Lockstep runs
// each pass's step protocol, so a cancelled run stops every worker at the
// next step boundary.
func (e eng) Run(_ context.Context, c *circuit.Circuit, cfg engine.Config) (*engine.Report, error) {
	if cfg.Lanes == 0 {
		cfg.Lanes = e.lanes
	}
	if cfg.LaneStride == 0 {
		cfg.LaneStride = 1
	}
	if cfg.FaultSim {
		return e.runFaults(c, cfg, analyze.FaultList(c, true))
	}
	return e.runPass(c, cfg, nil)
}

// planeBuf is one buffer side: the flat struct-of-arrays slabs plus the
// per-plane views the kernels and generators run over. planes[p] aliases
// v[p*words:(p+1)*words] / u[...], so batch loops and kernels see the same
// memory.
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
	cfg  engine.Config
	name string // the registry name the run reports itself under
	p    int

	prog     *program
	words    int
	laneMask []uint64

	buf [2]planeBuf // double-buffered node planes

	wc    []stats.WorkerCounters
	chaos *guard.ChaosProbe
	ls    *engine.Lockstep // this pass's step protocol

	// fault is the per-pass fault-simulation state, nil outside fault mode.
	fault *faultPass
}

// runPass compiles the circuit and runs one pass over it. fp, when
// non-nil, carries the fault-injection state of one fault-simulation pass.
func (e eng) runPass(c *circuit.Circuit, cfg engine.Config, fp *faultPass) (*engine.Report, error) {
	p := cfg.Workers
	s := &sim{
		c:        c,
		cfg:      cfg,
		name:     e.name,
		p:        p,
		prog:     compileProgram(c, p, cfg.Lanes, cfg.LaneStride),
		words:    logic.PlaneWords(cfg.Lanes),
		laneMask: logic.LaneMasks(cfg.Lanes),
		wc:       make([]stats.WorkerCounters, p),
		chaos:    cfg.Guard.Chaos(),
		fault:    fp,
	}
	s.ls = engine.NewLockstep(cfg, s.wc, s.fill)
	if fp != nil {
		fp.bind(s.prog, s.words)
	}

	for side := range s.buf {
		s.buf[side] = newPlaneBuf(s.prog.total, s.words)
		for i := range s.buf[side].planes {
			s.buf[side].planes[i].Fill(logic.X)
		}
	}
	resumed, err := s.ls.Begin(s.restore)
	if err != nil {
		return nil, err
	}
	if !resumed {
		s.initGenerators()
	}
	// Faults present from t=0 must be in both buffer sides so the first
	// step already reads the faulty machine state. Restored planes carry
	// them already; re-asserting is idempotent and guards the undriven
	// sites.
	if fp != nil {
		fp.inject(s.buf[0].planes)
		fp.inject(s.buf[1].planes)
	}
	return s.finish()
}

// initGenerators gives the generators their t=0 values before the first
// step, mirroring the scalar engine: both buffer sides start consistent,
// the probe sees lane ProbeLane, and a change in any live lane counts one
// update.
func (s *sim) initGenerators() {
	lw, lb := s.cfg.ProbeLane>>6, uint(s.cfg.ProbeLane&63)
	for w := range s.prog.gens {
		for i := range s.prog.gens[w] {
			g := &s.prog.gens[w][i]
			g.write(0, s.buf[0].planes)
			// Against the all-X reset (V=0, U=all ones) a lane changed
			// where a V bit is set or a U bit is clear.
			var changed uint64
			probed := false
			o, wd := int(g.out.off), int(g.out.w)
			for b := o; b < o+wd; b++ {
				nv := s.buf[0].planes[b]
				for ww := 0; ww < s.words; ww++ {
					changed |= (nv.V[ww] | ^nv.U[ww]) & s.laneMask[ww]
				}
				probed = probed || (nv.V[lw]|^nv.U[lw])>>lb&1 != 0
				copyWide(s.buf[1].planes[b], nv)
			}
			if changed == 0 {
				continue
			}
			s.wc[0].NodeUpdates++
			if s.cfg.Probe != nil && probed {
				s.cfg.Probe.OnChange(g.out.node, 0,
					logic.ExtractLaneWide(s.buf[0].planes[o:o+wd], s.cfg.ProbeLane, wd))
			}
		}
	}
}

// finish runs the worker gang over the (freshly initialised or restored)
// state and assembles the pass result.
func (s *sim) finish() (*engine.Report, error) {
	cfg := s.cfg
	wall := engine.Gang(cfg, s.name+" step loop", s.worker)
	steps, side, err := s.ls.Finish()
	if err != nil {
		return nil, err
	}
	planes := s.buf[side].planes
	rep := &engine.Report{LaneFinal: make([][]logic.Value, cfg.Lanes), Run: stats.Run{
		Algorithm: fmt.Sprintf("%sx%d", s.name, cfg.Lanes),
		Circuit:   s.c.Name,
		Horizon:   cfg.Horizon,
		Workers:   s.p,
		TimeSteps: steps,
	}}
	for l := range rep.LaneFinal {
		rep.LaneFinal[l] = s.extractLane(planes, l)
	}
	rep.Final = rep.LaneFinal[cfg.ProbeLane]
	for w := range s.wc {
		s.wc[w].ModelCalls = s.wc[w].Evals
	}
	rep.Run.Aggregate(wall, s.wc)
	return rep, nil
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
	gens := s.prog.gens[id]
	work := s.prog.work[id]
	// With one plane word and no probe the per-span scan collapses to
	// noteLevel's single flat loop over the level's (offset, width) pairs.
	fastNote := s.cfg.Probe == nil && s.words == 1

	// Step t computes node planes for t+1: read side t&1, write side
	// (t+1)&1. The final step is Horizon-2 -> values at Horizon-1. Nothing
	// inside a step reads this step's writes, so each worker sweeps its own
	// run of the schedule unordered and one barrier closes the step.
	s.ls.Steps(id, func(t circuit.Time, acc *stats.WorkerCounters) {
		cur, next := &s.buf[t&1], &s.buf[(t+1)&1]

		// Fault detection observes the settled values of step t before
		// this step's kernels overwrite the other buffer side.
		if s.fault != nil {
			s.fault.observe(id, t, cur.planes)
		}

		for i := range gens {
			g := &gens[i]
			g.write(t+1, next.planes)
			if s.noteSpan(g.out, t+1, cur, next) {
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
				lw.kerns[i].run(cur.planes, next.planes)
			}
			if s.cfg.CostSpin > 0 {
				circuit.Spin(lw.cost * s.cfg.CostSpin)
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
		// Re-assert injected faults on the freshly written side: a stuck
		// node stays stuck no matter what its driver computed.
		if s.fault != nil {
			s.fault.injectWorker(id, next.planes)
		}
	})
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
// when the observed lane did. Only the node's single driver calls this for
// a given span. It scans the flat slabs directly — this runs once per
// element per step, so the plane-struct indirection would cost as much as
// a small kernel.
func (s *sim) noteSpan(sp span, t circuit.Time, cur, next *planeBuf) bool {
	o, w := int(sp.off), int(sp.w)
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
	if s.cfg.Probe == nil {
		return true
	}
	lw, lb := s.cfg.ProbeLane>>6, uint(s.cfg.ProbeLane&63)
	var probeChanged uint64
	for b := 0; b < w; b++ {
		i0 := (o+b)*words + lw
		probeChanged |= ((cur.v[i0] ^ next.v[i0]) | (cur.u[i0] ^ next.u[i0])) & s.laneMask[lw]
	}
	if probeChanged>>lb&1 != 0 {
		s.cfg.Probe.OnChange(sp.node, t,
			logic.ExtractLaneWide(next.planes[o:o+w], s.cfg.ProbeLane, w))
	}
	return true
}

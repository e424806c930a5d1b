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
// loops with no per-element dispatch at all (batch.go), and so do the
// flip-flops (register.go); every other kind runs through a plane-op
// kernel (kernel.go, bitsliced.go) devirtualized into the level sequence,
// ROM and RAM decoding only the addresses some lane drives. Lane 0 replays
// the scalar stimulus bit for bit; the remaining lanes carry seed-shifted
// variants or, in fault-simulation mode, injected stuck-at faults
// (fault.go). The unit-delay double buffer makes levels a pure batching
// and locality device: nothing inside a step reads that step's writes, so
// no barrier separates them at any worker count.
//
// Around the kernels a step does little: a generator is evaluated only at
// its change times, a slice's node updates are counted in one branch-free
// scan over its runs of adjacent one-bit outputs (per span only when a
// probe must see each change), and the final lane values are decoded a
// plane word at a time into one backing array.
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
// state and assembles the pass result. A fault-simulation pass decodes
// only the probe lane: every other lane is a fault machine, large and not
// the product of that mode.
func (s *sim) finish() (*engine.Report, error) {
	cfg := s.cfg
	wall := engine.Gang(cfg, s.name+" step loop", s.worker)
	steps, side, err := s.ls.Finish()
	if err != nil {
		return nil, err
	}
	rep := &engine.Report{Run: stats.Run{
		Algorithm: fmt.Sprintf("%sx%d", s.name, cfg.Lanes),
		Circuit:   s.c.Name,
		Horizon:   cfg.Horizon,
		Workers:   s.p,
		TimeSteps: steps,
	}}
	if s.fault != nil {
		rep.Final = s.laneFinals(s.buf[side].planes, 1)[0] // ProbeLane is 0
	} else {
		rep.LaneFinal = s.laneFinals(s.buf[side].planes, cfg.Lanes)
		rep.Final = rep.LaneFinal[cfg.ProbeLane]
	}
	for w := range s.wc {
		s.wc[w].ModelCalls = s.wc[w].Evals
	}
	rep.Run.Aggregate(wall, s.wc)
	return rep, nil
}

// stateValues maps a lane's (V, U) bit pair, V the low bit, to its 1-bit
// Value: L, H, X, Z.
var stateValues = [4]logic.Value{
	logic.FromState(logic.L), logic.FromState(logic.H),
	logic.FromState(logic.X), logic.FromState(logic.Z),
}

// laneFinals decodes lanes [0, n) of every node from planes, all rows in
// one backing array. Per plane word it walks the nodes in blocks: it
// gathers a block's (V, U) words once, writes the block into each of the
// word's 64 rows through stateValues — the value of a one-bit node, one
// bit pair per node — and then re-decodes the block's wider nodes lane by
// lane.
func (s *sim) laneFinals(planes []logic.WidePlane, n int) [][]logic.Value {
	nodes := len(s.c.Nodes)
	back := make([]logic.Value, n*nodes)
	vals := make([][]logic.Value, n)
	for l := range vals {
		vals[l] = back[l*nodes : (l+1)*nodes : (l+1)*nodes]
	}
	var v, u [256]uint64
	for wd := 0; wd*64 < n; wd++ {
		rows := vals[wd*64 : min(n, wd*64+64)]
		for lo := 0; lo < nodes; lo += len(v) {
			offs := s.prog.off[lo:min(nodes, lo+len(v))]
			for k, o := range offs {
				v[k], u[k] = planes[o].V[wd], planes[o].U[wd]
			}
			for b, row := range rows {
				row = row[lo : lo+len(offs)]
				for k := range row {
					row[k] = stateValues[v[k]>>uint(b)&1|(u[k]>>uint(b)&1)<<1]
				}
			}
			for k, o := range offs {
				if w := s.c.Nodes[lo+k].Width; w != 1 {
					for b, row := range rows {
						row[lo+k] = logic.ExtractLaneWide(planes[o:int(o)+w], wd*64+b, w)
					}
				}
			}
		}
	}
	return vals
}

func (s *sim) worker(id int) {
	gens := s.prog.gens[id]
	work := s.prog.work[id]
	// Without a probe, updates are counted per slice in one scan; with
	// one, per span, so the probe sees each change of the observed lane.
	counting := s.cfg.Probe == nil

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

		stepped := false
		for i := range gens {
			stepped = gens[i].step(t, cur.planes, next.planes) || stepped
		}
		// A stuck lane on a generator output never changes: re-assert the
		// faults before the generators are counted, so a change counts only
		// in lanes the fault leaves free. Element outputs are rewritten
		// below and re-asserted again after them.
		if stepped && s.fault != nil {
			s.fault.injectWorker(id, next.planes)
		}
		for i := range gens {
			if g := &gens[i]; g.fresh() && s.noteSpan(g.out, t+1, cur, next) {
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
			lw.eval(cur, next)
			if s.cfg.CostSpin > 0 {
				circuit.Spin(lw.cost * s.cfg.CostSpin)
			}
			if counting {
				acc.NodeUpdates += s.countUpdates(lw, cur, next)
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

// nonzero is 1 when x != 0 and 0 otherwise, without a branch.
func nonzero(x uint64) int64 { return int64((x | -x) >> 63) }

// countUpdates is the probe-free update count of one slice: the outputs
// with a live lane that differs across the buffer sides. Width-1 outputs
// go through lw.runs with no branch per node; wider ones OR all their
// planes first. Only the last word of a plane can hold dead lanes, so
// only it is masked.
func (s *sim) countUpdates(lw *levelWork, cur, next *planeBuf) int64 {
	cv, cu, nv, nu := cur.v, cur.u, next.v, next.u
	words := s.words
	last, lm := words-1, s.laneMask[words-1]
	var n int64
	for i := 0; i < len(lw.runs); i += 2 {
		lo, hi := int(lw.runs[i])*words, int(lw.runs[i]+lw.runs[i+1])*words
		a := cv[lo:hi]
		b, c, d := cu[lo:hi][:len(a)], nv[lo:hi][:len(a)], nu[lo:hi][:len(a)]
		for j := last; j < len(a); j += words {
			x := ((a[j] ^ c[j]) | (b[j] ^ d[j])) & lm
			for k := j - last; k < j; k++ {
				x |= (a[k] ^ c[k]) | (b[k] ^ d[k])
			}
			n += nonzero(x)
		}
	}
	for _, sp := range lw.wide {
		lo, hi := int(sp.off)*words, int(sp.off+sp.w)*words
		a := cv[lo:hi]
		b, c, d := cu[lo:hi][:len(a)], nv[lo:hi][:len(a)], nu[lo:hi][:len(a)]
		var x, xl uint64
		for j := last; j < len(a); j += words {
			xl |= (a[j] ^ c[j]) | (b[j] ^ d[j])
			for k := j - last; k < j; k++ {
				x |= (a[k] ^ c[k]) | (b[k] ^ d[k])
			}
		}
		n += nonzero(x | xl&lm)
	}
	return n
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

// Package vector is the levelized plane core: the paper's unit-delay
// compiled-mode algorithm (double buffer, one barrier per step) over N
// independent stimulus lanes, 64 lanes per machine word and as many words
// per plane as the run requests, with a selective trace inside each step.
// The registry names "vector" and "jit" both run it; they differ only in
// the lane count a run gets when it asks for none (64 and 1).
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
// # Selective trace
//
// The schedule is cut into blocks of at most blockSize elements of one
// lowering (compile.go), and a fan-out table maps every output to the
// blocks that read it. Step t runs only the blocks marked during step t-1,
// and every block at a pass's first step. A block that runs scans its own
// outputs once: a live lane that differs across the buffer sides counts a
// node update, and an output whose planes differ in any lane, dead lanes
// included, marks its consumer blocks for step t+1 — so the slabs stay
// bit-identical to an every-element run's. An unmarked block is skipped if
// its outputs did not change at t-1, and otherwise copies them from cur to
// next, so each side always holds the latest values of its parity; a copy
// is not an evaluation. Evals counts the elements of the blocks run.
//
// Skipping is exact because every kernel is idempotent under unchanged
// inputs: evaluating it again at step t, with the inputs of step t-1,
// yields step t-1's outputs and leaves its state as step t-1 left it. The
// gates, muxes, wiring and arithmetic are pure functions. A dff or dffr
// (and a RAM's write port) sees an edge only where its previous-clock
// plane is L and the clock H; after one evaluation that plane equals the
// unchanged clock, so no edge follows, and a held-H reset forces the same
// value again. A latch with its enable H copies the unchanged data again
// and otherwise holds. A RAM writes before it reads, so a repeated write
// of the same data to the same address reads back the same word. Kernel
// state is therefore the same at every step as an every-element run's.
//
// Marks cross workers without atomics: each worker writes only its own
// bitmap per step parity (clearing it first), the end-of-step barrier
// orders those writes before any reader, and the reader ORs every
// producer's bitmap. In a fault pass the blocks that hold an injection
// site run every step, so their updates count exactly as before, and the
// scan, taken before the faults are re-asserted, can only over-mark:
// re-asserting a stuck lane never differs from cur, where that lane was
// already stuck. A snapshot carries the marks pending at its barrier
// (ckpt.go); both sides restore to the snapshot's planes, so no copy is
// owed, and a snapshot without marks resumes with every block marked.
//
// Around the kernels a step does little: a generator is evaluated only at
// its change times, and the final lane values are decoded a plane word at
// a time into one backing array.
package vector

import (
	"context"
	"fmt"
	"math/bits"

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

	// marks[t&1][q] is the bitmap, over global block numbers, of the
	// blocks producer q marked during step t-1 for step t. full makes the
	// pass's first step run every block instead.
	marks [2][][]uint64
	full  bool

	// fault is the per-pass fault-simulation state, nil outside fault mode.
	fault *faultPass
}

// runPass compiles the circuit and runs one pass over it. fp, when
// non-nil, carries the fault-injection state of one fault-simulation pass.
func (e eng) runPass(c *circuit.Circuit, cfg engine.Config, fp *faultPass) (*engine.Report, error) {
	return e.runProgram(compileProgram(c, cfg.Workers, cfg.Lanes, cfg.LaneStride), c, cfg, fp)
}

// runProgram runs one pass of prog, c compiled for cfg.
func (e eng) runProgram(prog *program, c *circuit.Circuit, cfg engine.Config, fp *faultPass) (*engine.Report, error) {
	p := cfg.Workers
	s := &sim{
		c:        c,
		cfg:      cfg,
		name:     e.name,
		p:        p,
		prog:     prog,
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
	// Producer bitmaps sit a cache line apart: each is written by its own
	// worker every step.
	stride := (s.prog.markWords+7)&^7 + 8
	back := make([]uint64, 2*p*stride)
	for par := range s.marks {
		s.marks[par] = make([][]uint64, p)
		for q := range s.marks[par] {
			lo := (par*p + q) * stride
			s.marks[par][q] = back[lo : lo+s.prog.markWords : lo+s.prog.markWords]
		}
	}
	s.full = true

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
	blocks := s.prog.blocks[id]
	w0 := int(s.prog.base[id]) >> 6 // the worker's first mark word
	nw := (len(blocks) + 63) >> 6
	// chg are the blocks whose outputs changed in the step before; a
	// cache line of padding keeps it off the other workers' lines.
	chg := make([]uint64, nw+8)[:nw]
	full := s.full

	// Step t computes node planes for t+1: read side t&1, write side
	// (t+1)&1. The final step is Horizon-2 -> values at Horizon-1. Nothing
	// inside a step reads this step's writes, so each worker sweeps its own
	// run of the schedule unordered and one barrier closes the step.
	s.ls.Steps(id, func(t circuit.Time, acc *stats.WorkerCounters) {
		cur, next := &s.buf[t&1], &s.buf[(t+1)&1]
		pending, mine := s.marks[t&1], s.marks[(t+1)&1][id]
		clear(mine)

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
			g := &gens[i]
			if !g.fresh() {
				continue
			}
			x, xl := s.diff(g.out, cur, next)
			if x|xl == 0 {
				continue
			}
			s.mark(g.fanLo, g.fanHi, 1, mine)
			if s.cfg.Probe == nil {
				acc.NodeUpdates += nonzero(x | xl&s.laneMask[s.words-1])
			} else if s.noteSpan(g.out, t+1, cur, next) {
				acc.NodeUpdates++
			}
		}
		// A word of blocks at a time: run the marked ones (every one at
		// the first step, a fault pass's injection sites always) and copy
		// across the unmarked ones whose outputs changed at the step
		// before; the rest already hold their values on the next side.
		for i := range chg {
			var run uint64
			if full {
				run = ^uint64(0)
				if n := len(blocks) - i<<6; n < 64 {
					run = 1<<uint(n) - 1
				}
			} else {
				for _, q := range pending {
					run |= q[w0+i]
				}
			}
			if s.fault != nil {
				run |= s.fault.always[w0+i]
			}
			for cp := chg[i] &^ run; cp != 0; cp &= cp - 1 {
				s.copyBlock(&blocks[i<<6|bits.TrailingZeros64(cp)], cur, next)
			}
			var changed uint64
			for r := run; r != 0; r &= r - 1 {
				k := bits.TrailingZeros64(r)
				b := &blocks[i<<6|k]
				acc.Evals += int64(b.elems)
				if s.chaos != nil {
					for e := int32(0); e < b.elems; e++ {
						s.chaos.Eval()
					}
				}
				b.run(cur, next)
				if s.cfg.CostSpin > 0 {
					circuit.Spin(b.cost * s.cfg.CostSpin)
				}
				n, ch := s.scan(b, t+1, cur, next, mine)
				acc.NodeUpdates += n
				changed |= ch << uint(k)
			}
			chg[i] = changed
		}
		full = false
		// Re-assert injected faults on the freshly written side: a stuck
		// node stays stuck no matter what its driver computed.
		if s.fault != nil {
			s.fault.injectWorker(id, next.planes)
		}
	})
}

// nonzero is 1 when x != 0 and 0 otherwise, without a branch.
func nonzero(x uint64) int64 { return int64((x | -x) >> 63) }

// diff compares one output's planes across the buffer sides: x ORs the
// differences in every plane word but the last, xl in the last, the only
// word that can hold dead lanes.
func (s *sim) diff(sp span, cur, next *planeBuf) (x, xl uint64) {
	words := s.words
	last := words - 1
	lo, hi := int(sp.off)*words, int(sp.off+sp.w)*words
	a := cur.v[lo:hi]
	b, c, d := cur.u[lo:hi][:len(a)], next.v[lo:hi][:len(a)], next.u[lo:hi][:len(a)]
	for j := last; j < len(a); j += words {
		xl |= (a[j] ^ c[j]) | (b[j] ^ d[j])
		for k := j - last; k < j; k++ {
			x |= (a[k] ^ c[k]) | (b[k] ^ d[k])
		}
	}
	return x, xl
}

// mark sets, in marks, the consumer blocks in the fan-out table run
// [lo, hi) that read an output in changed (bit i: the producer's output
// i), without a branch per consumer.
func (s *sim) mark(lo, hi int32, changed uint64, marks []uint64) {
	p := s.prog
	mask := p.fanMask[lo:hi]
	for k, g := range p.fanBlock[lo:hi] {
		marks[g>>6] |= uint64(nonzero(changed&mask[k])) << uint(g&63)
	}
}

// scan is the one pass over a block's outputs after it ran. A
// branch-free loop counts the outputs with a live lane changed and notes
// in a bit per output (a block has at most 64) which changed in any lane;
// the consumer blocks of those outputs are then marked and, when a probe
// must see each change, the changed outputs are counted through noteSpan
// instead. ch is 1 if any output changed.
func (s *sim) scan(b *block, t circuit.Time, cur, next *planeBuf, marks []uint64) (n int64, ch uint64) {
	words := s.words
	last := words - 1
	lm := s.laneMask[last]
	cv, cu, nv, nu := cur.v, cur.u, next.v, next.u
	var changed uint64
	i := uint(0) // the output the scan is at
	runs := s.prog.runs[b.runLo:b.runHi]
	for len(runs) >= 2 {
		off, cnt := runs[0], runs[1]
		runs = runs[2:]
		if cnt < 0 { // one wide output
			x, xl := s.diff(span{off: off, w: -cnt}, cur, next)
			n += nonzero(x | xl&lm)
			changed |= uint64(nonzero(x|xl)) << i
			i++
			continue
		}
		lo, hi := int(off)*words, int(off+cnt)*words
		a := cv[lo:hi]
		b, c, d := cu[lo:hi][:len(a)], nv[lo:hi][:len(a)], nu[lo:hi][:len(a)]
		if words == 1 {
			for j := range a {
				x := (a[j] ^ c[j]) | (b[j] ^ d[j])
				n += nonzero(x & lm)
				changed |= uint64(nonzero(x)) << (i + uint(j))
			}
			i += uint(len(a))
			continue
		}
		for j := last; j < len(a); j += words {
			xl := (a[j] ^ c[j]) | (b[j] ^ d[j])
			var x uint64
			for k := j - last; k < j; k++ {
				x |= (a[k] ^ c[k]) | (b[k] ^ d[k])
			}
			n += nonzero(x | xl&lm)
			changed |= uint64(nonzero(x|xl)) << i
			i++
		}
	}
	if changed == 0 {
		return n, 0
	}
	s.mark(b.fanLo, b.fanHi, changed, marks)
	if s.cfg.Probe != nil {
		n = 0
		outs := s.prog.outs[b.outLo:b.outHi]
		for m := changed; m != 0; m &= m - 1 {
			if s.noteSpan(outs[bits.TrailingZeros64(m)], t, cur, next) {
				n++
			}
		}
	}
	return n, 1
}

// copyBlock carries an unmarked block's changed outputs over to the side
// being written: its inputs did not change, so its next values are its
// current ones.
func (s *sim) copyBlock(b *block, cur, next *planeBuf) {
	words := s.words
	runs := s.prog.runs[b.runLo:b.runHi]
	for r := 0; r+1 < len(runs); r += 2 {
		lo, hi := int(runs[r])*words, int(runs[r]+max(runs[r+1], -runs[r+1]))*words
		copy(next.v[lo:hi], cur.v[lo:hi])
		copy(next.u[lo:hi], cur.u[lo:hi])
	}
}

// noteSpan compares one output node's planes across the buffer sides,
// reporting a node update when any live lane changed and firing the probe
// when the observed lane did. Only the node's single driver calls this for
// a given span, and only when a probe is attached and the span changed in
// some lane. It scans the flat slabs directly.
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

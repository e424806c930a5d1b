// Package vector is the levelized plane core: the paper's unit-delay
// compiled-mode algorithm (double buffer, one barrier per step) over N
// independent stimulus lanes, 64 lanes per machine word and as many words
// per plane as the run requests, with a selective trace inside each step.
// The registry names "vector" and "jit" both run it; they differ only in
// the lane count a run gets when it asks for none (64 and 1).
//
// The circuit's levelized schedule is lowered once per circuit and run
// shape into a per-level program of branch-free word-op batches over a
// struct-of-arrays state layout, and the step loop then executes that
// program with one sense-reversing barrier per unit-delay step across the
// workers — Manticore's static bulk-synchronous schedule on a
// general-purpose machine, with its super-step grown to the whole step.
// The lowered program and its slabs outlive the run as a machine
// (machine.go) that the next run of the same key checks out.
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
// its change times. The run hands back its final planes packed, as they
// are (logic.LaneValues), and decodes only the probe lane.
//
// # Reusing a lowered program
//
// A machine is handed from run to run, so everything a run writes must be
// either rewritten before the next run reads it or restored at checkout.
// runProgram fills both buffer sides with X and clears every mark bitmap;
// checkout copies back every kernel state row and per-lane state saved
// right after lowering and makes every generator fresh (due 0, not stale).
// Those are the only places a run's writes can outlive it. Every closure
// the compiler builds captures only:
//
//   - plane offsets, widths, word counts, opcodes and offset tables fixed
//     at lowering (the gate batches, wiring, comparison, arithmetic and
//     reduction kernels, ROM contents, dffr reset values);
//   - kernel state reachable from program.kernels() — a latch's q row, a
//     RAM's previous clock and memory rows, the register batch slab (each
//     of its planes is a state row of one register's entry), the per-lane
//     state of a scalar fallback — which checkout restores;
//   - scratch written before it is read within one evaluation: the mul
//     accumulator, the alu candidates and select masks, the ROM and RAM
//     result rows, the address decoder's masks and stacks (truncated on
//     entry), the fallback's unpacked inputs and outputs;
//   - generator elements, read-only, whose due and stale checkout resets.
//
// Bit-identical resume already needs all mutable kernel state in the rows
// the snapshot codec walks, so the restore at checkout is exactly as
// correct as a resume from t=0. Kernels and generators point into the
// circuit they were lowered from; circuits are immutable after Build and
// the machine key covers everything lowering reads, so a machine runs any
// circuit with its key exactly as it runs its own.
package vector

import (
	"context"
	"fmt"
	"math/bits"

	"parsim/internal/analyze"
	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/guard"
	"parsim/internal/idle"
	"parsim/internal/logic"
	"parsim/internal/stats"
)

// eng is the core's registry adapter. The registered values differ only
// in name and in the lane count a run gets when Config.Lanes is 0: "vector"
// is first a batched engine (one full plane word), "jit" first a scalar
// engine that widens on request. "compiled", with no default lanes, is the
// paper's Algorithm 2 on the core: a scalar engine (one lane inside, no lane
// fields, no LaneFinal, no fault simulation) whose selective trace is off,
// so every block runs at every step and Evals counts every element.
type eng struct {
	name  string
	lanes int
}

var (
	vectorEng   = eng{name: "vector", lanes: logic.MaxLanes}
	jitEng      = eng{name: "jit", lanes: 1}
	compiledEng = eng{name: "compiled"}
)

func init() {
	engine.Register(vectorEng, "batched", "bit-parallel")
	engine.Register(jitEng, "codegen")
	engine.Register(compiledEng, "compiled-mode")
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
	if e.lanes == 0 { // compiled ignores the lane fields, as every scalar engine does
		cfg.Lanes, cfg.LaneStride, cfg.ProbeLane = 1, 1, 0
	}
	if cfg.Lanes == 0 {
		cfg.Lanes = e.lanes
	}
	if cfg.LaneStride == 0 {
		cfg.LaneStride = 1
	}
	if cfg.FaultSim {
		return e.runFaults(c, cfg, analyze.FaultList(c, true))
	}
	return e.runPass(machineKey(c, cfg.Workers, cfg.Lanes, cfg.LaneStride), c, cfg, nil)
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
	// every is compiled mode: the selective trace is off, so every block
	// runs at every step, and the report has a scalar engine's surface.
	every bool

	prog     *program
	words    int
	laneMask []uint64

	buf [2]planeBuf // double-buffered node planes

	wc    []stats.WorkerCounters
	chaos *guard.ChaosProbe
	ls    *engine.Lockstep // this pass's step protocol

	// marks[t&1][q] is the bitmap, over global block numbers, of the
	// blocks producer q marked during step t-1 for step t. full makes the
	// pass's first step (every step, when every is set) run every block
	// instead.
	marks [2][][]uint64
	full  bool

	// fault is the per-pass fault-simulation state, nil outside fault mode.
	fault *faultPass
}

// runPass runs one pass of c on the machine under key (machineKey of c
// and cfg), checked out of the cache or lowered on a miss, and hands the
// machine back once the report holds copies of everything it reads. fp,
// when non-nil, carries the fault-injection state of one fault-simulation
// pass.
func (e eng) runPass(key idle.Key, c *circuit.Circuit, cfg engine.Config, fp *faultPass) (*engine.Report, error) {
	m, ok := idle.Checkout[*machine](idle.Runs, key)
	if ok {
		m.reset()
	} else {
		m = lower(c, cfg.Workers, cfg.Lanes, cfg.LaneStride)
	}
	rep, err := e.runProgram(m, c, cfg, fp)
	idle.Runs.Checkin(key, m, m.bytes)
	return rep, err
}

// runProgram runs one pass of m, c lowered for cfg, from t=0 kernel state.
func (e eng) runProgram(m *machine, c *circuit.Circuit, cfg engine.Config, fp *faultPass) (*engine.Report, error) {
	p := cfg.Workers
	s := &sim{
		c:        c,
		cfg:      cfg,
		name:     e.name,
		p:        p,
		every:    e.lanes == 0,
		prog:     m.prog,
		words:    logic.PlaneWords(cfg.Lanes),
		laneMask: logic.LaneMasks(cfg.Lanes),
		buf:      m.buf,
		marks:    m.marks,
		full:     true,
		wc:       make([]stats.WorkerCounters, p),
		chaos:    cfg.Guard().Chaos(),
		fault:    fp,
	}
	s.ls = engine.NewLockstep(cfg, s.wc, s.fill)
	if fp != nil {
		fp.bind(s.prog, s.words)
	}
	clear(m.markBack)
	for side := range s.buf {
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
// state and assembles the pass result: the final planes as they are, one
// copy per node, and lane ProbeLane decoded into Final. A fault-simulation
// pass keeps only that lane: every other lane is a fault machine, large
// and not the product of that mode.
func (s *sim) finish() (*engine.Report, error) {
	cfg := s.cfg
	wall := engine.Gang(cfg, s.name+" step loop", s.worker)
	steps, side, err := s.ls.Finish()
	if err != nil {
		return nil, err
	}
	algorithm := s.name
	if !s.every {
		algorithm = fmt.Sprintf("%sx%d", s.name, cfg.Lanes)
	}
	rep := &engine.Report{Stats: stats.Run{
		Algorithm: algorithm,
		Circuit:   s.c.Name,
		Horizon:   cfg.Horizon,
		Workers:   s.p,
		TimeSteps: steps,
	}}
	buf := &s.buf[side]
	if s.fault == nil && !s.every {
		rep.LaneFinal = s.packFinals(buf)
	}
	rep.Final = make([]logic.Value, len(s.c.Nodes))
	for n := range rep.Final {
		o, w := int(s.prog.off[n]), s.c.Nodes[n].Width
		rep.Final[n] = logic.ExtractLaneWide(buf.planes[o:o+w], cfg.ProbeLane, w)
	}
	for w := range s.wc {
		s.wc[w].ModelCalls = s.wc[w].Evals
	}
	rep.Stats.Aggregate(wall, s.wc)
	return rep, nil
}

// packFinals copies every node's planes out of buf, in node order, into
// the packed lane values a report carries.
func (s *sim) packFinals(buf *planeBuf) *logic.LaneValues {
	lv := logic.NewLaneValues(s.cfg.Lanes, len(s.c.Nodes), func(n int) int { return s.c.Nodes[n].Width })
	for n := range s.c.Nodes {
		v, u := lv.Planes(n)
		o := int(s.prog.off[n]) * s.words
		copy(v, buf.v[o:])
		copy(u, buf.u[o:])
	}
	return lv
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
		full = s.every
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

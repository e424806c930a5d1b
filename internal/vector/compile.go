package vector

import (
	"sort"

	"parsim/internal/analyze"
	"parsim/internal/circuit"
	"parsim/internal/logic"
)

// The static compiler: lower a circuit's levelized schedule into a
// program — a per-(worker, level) sequence of fused gate batches and
// devirtualized element kernels over a struct-of-arrays plane numbering.
// Compilation happens once per run; the step loop then executes
// straight-line batch loops with one barrier per step. The compiler owns
// the parallel split: the (level, element)-ordered schedule is cut into one
// cost-balanced contiguous run per worker.

// program is one circuit compiled for p workers at a lane width.
type program struct {
	// The layout numbers nodes owner-major, then in (driver level, node)
	// order: each worker's write set on a buffer side is one dense slab
	// range disjoint from every other worker's — the per-worker state
	// stripe PARSIR argues for — and inside it each level's outputs land
	// contiguously. Undriven nodes (constant inputs everyone reads, nobody
	// writes) come first.
	layout
	// owner maps element -> the worker that evaluates it (generators
	// included); fault injection follows it.
	owner []int32
	// work[w] is worker w's contiguous run of the schedule, one entry per
	// level it touches, in level order.
	work [][]levelWork
	// gens[w] are worker w's stimulus generators (round-robin).
	gens [][]genKernel
}

// kernels lists every compiled kernel in (worker, level, position) order,
// the walk the checkpoint codec saves and restores kernel state in.
func (p *program) kernels() []*kernel {
	var ks []*kernel
	for w := range p.work {
		for sl := range p.work[w] {
			for i := range p.work[w][sl].kerns {
				ks = append(ks, &p.work[w][sl].kerns[i])
			}
		}
	}
	return ks
}

// levelWork is one worker's compiled slice of one level: the fused gate
// batches, the kernels for every other kind (a register's entry runs its
// slice's whole register batch, or nothing), and the output spans to scan
// for node-update/probe accounting.
type levelWork struct {
	batches []gateBatch
	kerns   []kernel
	spans   []span
	// runs and wide split spans for the probe-free update count: runs are
	// (offset, count) pairs of adjacent width-1 output planes, each counted
	// in one branch-free scan; wide are the wider outputs.
	runs  []int32
	wide  []span
	elems int64 // elements in this slice (eval accounting)
	cost  int64 // summed element Cost (CostSpin accounting)
}

// eval runs the slice's batches and kernels: cur's planes in, next's out.
func (lw *levelWork) eval(cur, next *planeBuf) {
	for i := range lw.batches {
		lw.batches[i].run(cur.v, cur.u, next.v, next.u)
	}
	for i := range lw.kerns {
		if run := lw.kerns[i].run; run != nil {
			run(cur.planes, next.planes)
		}
	}
}

// planCount builds runs and wide from spans. A slice's outputs share one
// (owner, level) key, so they sit together in the layout, but generator
// outputs of the same key may interleave with them; runs therefore merge
// only planes that are adjacent.
func (lw *levelWork) planCount() {
	sps := append([]span(nil), lw.spans...)
	sort.Slice(sps, func(i, j int) bool { return sps[i].off < sps[j].off })
	for _, sp := range sps {
		if sp.w != 1 {
			lw.wide = append(lw.wide, sp)
			continue
		}
		if n := len(lw.runs); n > 0 && lw.runs[n-2]+lw.runs[n-1] == sp.off {
			lw.runs[n-1]++
			continue
		}
		lw.runs = append(lw.runs, sp.off, 1)
	}
}

// compileProgram lowers c for p workers at the given lane count; stride is
// the per-lane generator seed offset (lane 0 replays the scalar stimulus).
func compileProgram(c *circuit.Circuit, p int, lanes int, stride int64) *program {
	words := logic.PlaneWords(lanes)
	levels := analyze.LevelSchedule(c)

	// The schedule: every non-generator element in (level, id) order, the
	// cycle-fed level -1 first.
	var sched []circuit.ElemID
	var totalCost int64
	for i := range c.Elems {
		if el := &c.Elems[i]; !el.IsGenerator() {
			sched = append(sched, el.ID)
			totalCost += el.Cost
		}
	}
	sort.Slice(sched, func(i, j int) bool {
		if li, lj := levels[sched[i]], levels[sched[j]]; li != lj {
			return li < lj
		}
		return sched[i] < sched[j]
	})

	// Ownership: cut the schedule into p contiguous runs of near-equal
	// summed Cost — an element goes to the worker its cost midpoint falls
	// in. Generators deal round-robin.
	owner := make([]int32, len(c.Elems))
	var before int64
	for _, eid := range sched {
		cost := c.Elems[eid].Cost
		if totalCost > 0 {
			owner[eid] = int32((2*before + cost) * int64(p) / (2 * totalCost))
		}
		before += cost
	}
	gens := c.Generators()
	for i, g := range gens {
		owner[g] = int32(i % p)
	}

	// Node numbering: sort by (owner, driver level, node) — undriven nodes
	// first — then assign plane offsets in that order. At one worker this
	// is plain level-major order.
	type nodeKey struct {
		owner, level int32
		n            circuit.NodeID
	}
	keys := make([]nodeKey, len(c.Nodes))
	for n := range c.Nodes {
		k := nodeKey{owner: -1, n: circuit.NodeID(n)}
		if d := c.Nodes[n].Driver; d != circuit.NoElem {
			k.owner, k.level = owner[d], int32(levels[d])
		}
		keys[n] = k
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.owner != b.owner {
			return a.owner < b.owner
		}
		if a.level != b.level {
			return a.level < b.level
		}
		return a.n < b.n
	})
	off := make([]int32, len(c.Nodes))
	total := int32(0)
	for _, k := range keys {
		off[k.n] = total
		total += int32(c.Nodes[k.n].Width)
	}

	prog := &program{
		layout: layout{off: off, total: int(total)},
		owner:  owner,
		work:   make([][]levelWork, p),
		gens:   make([][]genKernel, p),
	}

	// Lowering walks the schedule once: a new levelWork opens whenever the
	// owner or the level changes, and inside one, fused gates batch by
	// shape in element order and registers into one batch, each register
	// keeping a kernel entry at its place (regAt).
	var pend [numShapes][]int32
	var regs []*circuit.Element
	var regAt []int
	var lw *levelWork
	flush := func() {
		if lw == nil {
			return
		}
		for sh := gateShape(0); sh < numShapes; sh++ {
			if len(pend[sh]) > 0 {
				lw.batches = append(lw.batches, compileBatch(sh, pend[sh], words))
				pend[sh] = nil
			}
		}
		if len(regs) > 0 {
			ks := make([]*kernel, len(regAt))
			for i, at := range regAt {
				ks[i] = &lw.kerns[at]
			}
			compileRegs(c, regs, ks, prog.layout, words)
			regs, regAt = regs[:0], regAt[:0]
		}
		lw.planCount()
	}
	for si, eid := range sched {
		el := &c.Elems[eid]
		w := owner[eid]
		if si == 0 || owner[sched[si-1]] != w || levels[sched[si-1]] != levels[eid] {
			flush()
			prog.work[w] = append(prog.work[w], levelWork{})
			lw = &prog.work[w][len(prog.work[w])-1]
		}
		lw.elems++
		lw.cost += el.Cost
		if sh, ok := fusedShape(el); ok {
			out := el.Out[0]
			oo, ww := off[out], int32(c.Nodes[out].Width)
			wd := int32(words)
			for i := int32(0); i < ww; i++ {
				switch sh.arity() {
				case 2:
					pend[sh] = append(pend[sh],
						(off[el.In[0]]+i)*wd, (oo+i)*wd)
				case 3:
					pend[sh] = append(pend[sh],
						(off[el.In[0]]+i)*wd, (off[el.In[1]]+i)*wd, (oo+i)*wd)
				case 4:
					// mux2: the width-1 select column broadcasts.
					pend[sh] = append(pend[sh],
						off[el.In[0]]*wd, (off[el.In[1]]+i)*wd, (off[el.In[2]]+i)*wd, (oo+i)*wd)
				}
			}
			lw.spans = append(lw.spans, span{node: out, off: oo, w: ww})
			continue
		}
		if isRegister(el.Kind) {
			regs, regAt = append(regs, el), append(regAt, len(lw.kerns))
			sp := prog.span(c, el.Out[0])
			lw.kerns = append(lw.kerns, kernel{outs: []span{sp}})
			lw.spans = append(lw.spans, sp)
			continue
		}
		k := compileElem(c, el, prog.layout, lanes)
		lw.kerns = append(lw.kerns, k)
		lw.spans = append(lw.spans, k.outs...)
	}
	flush()

	for i, g := range gens {
		prog.gens[i%p] = append(prog.gens[i%p], compileGen(c, &c.Elems[g], prog.layout, lanes, stride))
	}
	return prog
}

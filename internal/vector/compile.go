package vector

import (
	"cmp"
	"slices"

	"parsim/internal/analyze"
	"parsim/internal/circuit"
	"parsim/internal/logic"
)

// The static compiler: lower a circuit's levelized schedule into a
// program — a per-(worker, level) sequence of fused gate batches and
// devirtualized element kernels over a struct-of-arrays plane numbering,
// cut into fixed schedule blocks with a fan-out table between them.
// Compilation happens once per circuit and run shape (a machine cache
// miss, machine.go); the step loop then runs the blocks a change can
// reach, each a straight-line batch loop, with one barrier per step. The compiler owns the parallel split: the (level, element)-ordered
// schedule is cut into one cost-balanced contiguous run per worker.

// blockSize is the most elements one schedule block holds: the unit the
// selective trace runs or skips. Smaller blocks skip more idle elements;
// larger ones pay less per-block dispatch, scan and mark overhead. Of 8,
// 16, 32 and 64, 16 keeps most of 8's gain on the benchmark circuits
// without 8's per-block cost on the fully active inverter array
// (CHANGES.md has the curve).
//
// The step notes which of a block's outputs changed in one word, so
// blockSize times the most outputs of any element kind (two, addc's) must
// stay at most 64.
const blockSize = 16

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

	// blocks[w] are worker w's schedule blocks in level order. Block i of
	// worker w has the global number base[w]+i; each worker's numbers
	// start on a multiple of 64, so it owns whole words of every mark
	// bitmap, markWords words in all.
	blocks    [][]block
	base      []int32
	markWords int
	// elemBlock maps element -> the global number of its block, -1 for a
	// generator.
	elemBlock []int32
	// outs are every block's outputs, block after block, each block's in
	// plane order; runs cover them as (offset, n) pairs: n > 0 is n
	// adjacent width-1 outputs, n < 0 one output of width -n.
	outs []span
	runs []int32
	// The fan-out table, in CSR form: a producer — a block or a generator
	// — owns the run [fanLo, fanHi) of its consumer blocks, fanBlock
	// holding each one's global number and fanMask which of the
	// producer's outputs (bit i: output i) it reads. A producer whose
	// output i changed marks the consumers whose mask has bit i.
	fanBlock []int32
	fanMask  []uint64
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
// slice's whole register batch, or nothing), the output spans, and the
// slice cut into schedule blocks.
type levelWork struct {
	batches []gateBatch
	kerns   []kernel
	spans   []span  // the slice's rows of program.outs
	blocks  []block // the slice's run of program.blocks[w]
	elems   int64   // elements in this slice
}

// eval runs every block of the slice: cur's planes in, next's out.
func (lw *levelWork) eval(cur, next *planeBuf) {
	for i := range lw.blocks {
		lw.blocks[i].run(cur, next)
	}
}

// block is one schedule block: up to blockSize elements of one slice, all
// of one lowering — a run of a fused batch's offset table, of its register
// batch, or of its other kernels — and its outputs, program.outs[outLo:
// outHi] covered by program.runs[runLo:runHi]. Output i of a block is
// outs[outLo+i].
type block struct {
	gate   *gateBatch // a fused run: gate.offs[lo:hi]
	regs   *regBatch  // a register run: regs.regs[lo:hi]
	kerns  []kernel   // otherwise a kernel run
	lo, hi int32
	outLo  int32
	outHi  int32
	runLo  int32
	runHi  int32
	fanLo  int32 // its consumers in the fan-out table
	fanHi  int32
	elems  int32
	cost   int64 // summed element Cost (CostSpin accounting)
}

// run evaluates the block's elements: cur's planes in, next's out.
func (b *block) run(cur, next *planeBuf) {
	switch {
	case b.gate != nil:
		b.gate.loop(b.gate.offs[b.lo:b.hi], cur.v, cur.u, next.v, next.u)
	case b.regs != nil:
		b.regs.exec(b.regs.regs[b.lo:b.hi], cur.planes, next.planes)
	default:
		for i := range b.kerns {
			b.kerns[i].run(cur.planes, next.planes)
		}
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
	slices.SortFunc(sched, func(a, b circuit.ElemID) int {
		return cmp.Or(cmp.Compare(levels[a], levels[b]), cmp.Compare(a, b))
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
	slices.SortFunc(keys, func(a, b nodeKey) int {
		return cmp.Or(cmp.Compare(a.owner, b.owner), cmp.Compare(a.level, b.level), cmp.Compare(a.n, b.n))
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

	outs := 0
	for _, eid := range sched {
		outs += len(c.Elems[eid].Out)
	}
	prog.outs = make([]span, 0, outs)

	// Lowering walks the schedule once: a new levelWork opens whenever the
	// owner or the level changes, and inside one, fused gates batch by
	// shape in element order and registers into one batch, each register
	// keeping a kernel entry at its place (regAt). Closing a slice cuts each
	// batch, the register batch and each run of other kernels between
	// register entries into blocks of at most blockSize elements.
	var pend [numShapes][]int32
	var pendEl [numShapes][]circuit.ElemID
	var pendCut [numShapes][]int32 // offset-table index of each element's first entry
	var regs []circuit.ElemID
	var regAt []int
	var kernEl []circuit.ElemID // the element of each lw.kerns entry
	var lw *levelWork
	var lwOwner int32
	prog.blocks = make([][]block, p)
	prog.elemBlock = make([]int32, len(c.Elems))
	for i := range prog.elemBlock {
		prog.elemBlock[i] = -1
	}
	addBlock := func(b block, els []circuit.ElemID) {
		bs := &prog.blocks[lwOwner]
		b.outLo = int32(len(prog.outs))
		for _, eid := range els {
			el := &c.Elems[eid]
			b.elems++
			b.cost += el.Cost
			prog.elemBlock[eid] = int32(len(*bs)) // local until the bases are known
			for _, n := range el.Out {
				prog.outs = append(prog.outs, prog.span(c, n))
			}
		}
		b.outHi = int32(len(prog.outs))
		if b.outHi-b.outLo > 64 {
			panic("vector: a schedule block has more than 64 outputs; lower blockSize")
		}
		outs := prog.outs[b.outLo:b.outHi]
		slices.SortFunc(outs, func(a, b span) int { return cmp.Compare(a.off, b.off) })
		b.runLo = int32(len(prog.runs))
		for _, sp := range outs {
			n := len(prog.runs)
			switch {
			case sp.w != 1:
				prog.runs = append(prog.runs, sp.off, -sp.w)
			case n > int(b.runLo) && prog.runs[n-1] > 0 && prog.runs[n-2]+prog.runs[n-1] == sp.off:
				prog.runs[n-1]++
			default:
				prog.runs = append(prog.runs, sp.off, 1)
			}
		}
		b.runHi = int32(len(prog.runs))
		*bs = append(*bs, b)
	}
	flush := func() {
		if lw == nil {
			return
		}
		first := len(prog.blocks[lwOwner])
		nb := 0
		for sh := range pend {
			if len(pend[sh]) > 0 {
				nb++
			}
		}
		lw.batches = make([]gateBatch, 0, nb) // blocks point into it: no regrowth
		for sh := gateShape(0); sh < numShapes; sh++ {
			if len(pend[sh]) == 0 {
				continue
			}
			lw.batches = append(lw.batches, compileBatch(sh, pend[sh], words))
			gb := &lw.batches[len(lw.batches)-1]
			els, cuts := pendEl[sh], pendCut[sh]
			for i := 0; i < len(els); i += blockSize {
				j, hi := min(i+blockSize, len(els)), int32(len(gb.offs))
				if j < len(els) {
					hi = cuts[j]
				}
				addBlock(block{gate: gb, lo: cuts[i], hi: hi}, els[i:j])
			}
			pend[sh], pendEl[sh], pendCut[sh] = nil, pendEl[sh][:0], pendCut[sh][:0]
		}
		if len(regs) > 0 {
			ks := make([]*kernel, len(regAt))
			for i, at := range regAt {
				ks[i] = &lw.kerns[at]
			}
			rb := compileRegs(c, regs, ks, prog.layout, words)
			for i := 0; i < len(regs); i += blockSize {
				j := min(i+blockSize, len(regs))
				addBlock(block{regs: rb, lo: int32(i), hi: int32(j)}, regs[i:j])
			}
			regs, regAt = regs[:0], regAt[:0]
		}
		for i := 0; i < len(lw.kerns); {
			j := i
			for j < len(lw.kerns) && j-i < blockSize && !isRegister(c.Elems[kernEl[j]].Kind) {
				j++
			}
			if j == i {
				i++ // a register's state-only entry: its batch has run
				continue
			}
			addBlock(block{kerns: lw.kerns[i:j:j]}, kernEl[i:j])
			i = j
		}
		kernEl = kernEl[:0]
		// A stale view until every block exists; re-pointed below.
		lw.blocks = prog.blocks[lwOwner][first:]
	}
	for si, eid := range sched {
		el := &c.Elems[eid]
		w := owner[eid]
		if si == 0 || owner[sched[si-1]] != w || levels[sched[si-1]] != levels[eid] {
			flush()
			prog.work[w] = append(prog.work[w], levelWork{})
			lw, lwOwner = &prog.work[w][len(prog.work[w])-1], w
		}
		lw.elems++
		if sh, ok := fusedShape(el); ok {
			pendEl[sh] = append(pendEl[sh], eid)
			pendCut[sh] = append(pendCut[sh], int32(len(pend[sh])))
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
			continue
		}
		kernEl = append(kernEl, eid)
		if isRegister(el.Kind) {
			regs, regAt = append(regs, eid), append(regAt, len(lw.kerns))
			lw.kerns = append(lw.kerns, kernel{outs: []span{prog.span(c, el.Out[0])}})
			continue
		}
		lw.kerns = append(lw.kerns, compileElem(c, el, prog.layout, lanes))
	}
	flush()

	for i, g := range gens {
		prog.gens[i%p] = append(prog.gens[i%p], compileGen(c, &c.Elems[g], prog.layout, lanes, stride))
	}
	prog.link(c)
	return prog
}

// link finishes the block program once every block exists: it numbers the
// blocks globally, re-points each slice at its blocks and output rows and
// builds the fan-out table.
func (p *program) link(c *circuit.Circuit) {
	p.base = make([]int32, len(p.blocks)+1)
	for w, bs := range p.blocks {
		p.base[w+1] = p.base[w] + int32(len(bs)+63)&^63
	}
	p.markWords = int(p.base[len(p.blocks)] >> 6)
	for e, b := range p.elemBlock {
		if b >= 0 {
			p.elemBlock[e] = p.base[p.owner[e]] + b
		}
	}
	for w := range p.work {
		bi := 0
		for sl := range p.work[w] {
			lw := &p.work[w][sl]
			n := len(lw.blocks)
			lw.blocks = p.blocks[w][bi : bi+n : bi+n]
			bi += n
			lo, hi := lw.blocks[0].outLo, lw.blocks[n-1].outHi
			lw.spans = p.outs[lo:hi:hi]
		}
	}

	// The fan-out table, in two walks over the producers — every block,
	// then every generator: the first sizes it, the second fills it. A
	// consumer that reads a producer through several outputs or elements
	// is one entry, its mask their union. at[g] is consumer g's entry while
	// stamp[g] is the producer being walked.
	at := make([]int32, p.base[len(p.blocks)])
	stamp := make([]int32, len(at))
	producer, n := int32(0), int32(0)
	visit := func(outs []span, fill bool) (lo, hi int32) {
		producer++
		lo = n
		for i, sp := range outs {
			for _, pr := range c.Nodes[sp.node].Fanout {
				g := p.elemBlock[pr.Elem]
				if g < 0 {
					continue
				}
				if stamp[g] != producer {
					stamp[g], at[g] = producer, n
					if fill {
						p.fanBlock[n] = g
					}
					n++
				}
				if fill {
					p.fanMask[at[g]] |= 1 << uint(i)
				}
			}
		}
		return lo, n
	}
	for _, fill := range []bool{false, true} {
		if fill {
			p.fanBlock, p.fanMask, n = make([]int32, n), make([]uint64, n), 0
		}
		for w := range p.blocks {
			for i := range p.blocks[w] {
				b := &p.blocks[w][i]
				b.fanLo, b.fanHi = visit(p.outs[b.outLo:b.outHi], fill)
			}
		}
		for w := range p.gens {
			for i := range p.gens[w] {
				g := &p.gens[w][i]
				g.fanLo, g.fanHi = visit([]span{g.out}, fill)
			}
		}
	}
}

package vector

import (
	"math"

	"parsim/internal/circuit"
	"parsim/internal/logic"
)

// layout assigns every node a contiguous run of wide planes in the double
// buffer: node n's bit b lives at off[n]+b, and total is the plane count.
// The compiler (compile.go) owns the numbering.
type layout struct {
	off   []int32
	total int
}

// span locates one node's planes.
type span struct {
	node circuit.NodeID
	off  int32
	w    int32
}

func (l layout) span(c *circuit.Circuit, n circuit.NodeID) span {
	return span{node: n, off: l.off[n], w: int32(c.Nodes[n].Width)}
}

// wideRow allocates w planes of the given word width holding s in every
// lane, used for kernel-internal state.
func wideRow(w, words int, s logic.State) []logic.WidePlane {
	row := newPlaneBuf(w, words).planes
	for i := range row {
		row[i].Fill(s)
	}
	return row
}

func copyWide(dst, src logic.WidePlane) {
	copy(dst.V, src.V)
	copy(dst.U, src.U)
}

func zeroWide(dst logic.WidePlane) {
	for w := range dst.V {
		dst.V[w], dst.U[w] = 0, 0
	}
}

// kernel is one element compiled to a plane-op routine: run reads input
// planes from cur and writes every output plane in next, for all lanes at
// once, looping the proven single-word plane ops over the plane words.
// Kernels with internal state (latch, RAM) own it via closure; each element
// belongs to exactly one worker's run of the schedule, so exactly one
// worker ever runs its kernel. A register's entry is state only: its
// slice's register batch (register.go) evaluates it, and run is that whole
// batch on the slice's first register and nil on the others.
type kernel struct {
	outs []span
	run  func(cur, next []logic.WidePlane)
	// state aliases the plane rows of stateful kernels — a flip-flop's
	// previous clock and held output, a latch's output, a RAM's memory
	// array — so a checkpoint can read and restore them in place
	// (WidePlane copies share their backing words). laneState aliases the
	// per-lane scalar state of fallback kernels the same way.
	state     []logic.WidePlane
	laneState [][]logic.Value
}

// tableKind reports the table-driven functional kinds whose bit-sliced
// kernels (bitsliced.go) pay off only with multiple live lanes: at one lane
// they would do word-ops-per-bit work for a single stimulus vector, and the
// scalar registry's native integer evaluation is strictly faster.
func tableKind(k circuit.Kind) bool {
	switch k {
	case circuit.KindMul, circuit.KindAlu, circuit.KindRom, circuit.KindRam:
		return true
	}
	return false
}

// compileElem translates one element the compiler did not fuse into a gate
// or register batch (batch.go, register.go) into its plane-op kernel. Wide
// gates, latches, wiring, comparison, adder and — beyond one lane — the
// table-driven functional kinds all get true bit-parallel kernels; anything
// else falls back to per-lane scalar evaluation behind the same interface.
func compileElem(c *circuit.Circuit, el *circuit.Element, lay layout, lanes int) kernel {
	words := logic.PlaneWords(lanes)
	var k kernel
	for _, n := range el.Out {
		k.outs = append(k.outs, lay.span(c, n))
	}
	ins := make([]span, len(el.In))
	for i, n := range el.In {
		ins[i] = lay.span(c, n)
	}
	if lanes == 1 && tableKind(el.Kind) {
		k.run, k.laneState = compileScalar(el, ins, k.outs, lanes)
		return k
	}
	out := int(lay.off[el.Out[0]])
	w := c.Nodes[el.Out[0]].Width

	switch el.Kind {
	case circuit.KindAnd:
		k.run = compileGate(ins, out, w, words, opAnd, false)
	case circuit.KindNand:
		k.run = compileGate(ins, out, w, words, opAnd, true)
	case circuit.KindOr:
		k.run = compileGate(ins, out, w, words, opOr, false)
	case circuit.KindNor:
		k.run = compileGate(ins, out, w, words, opOr, true)
	case circuit.KindXor:
		k.run = compileGate(ins, out, w, words, opXor, false)
	case circuit.KindXnor:
		k.run = compileGate(ins, out, w, words, opXor, true)

	case circuit.KindLatch:
		en, d := int(ins[0].off), int(ins[1].off)
		q := wideRow(w, words, logic.X)
		k.state = q
		k.run = func(cur, next []logic.WidePlane) {
			for wd := 0; wd < words; wd++ {
				enH := cur[en].Word(wd).HMask()
				for i := 0; i < w; i++ {
					qi := logic.PlaneSelect(enH, cur[d+i].Word(wd).Readable(), q[i].Word(wd))
					q[i].SetWord(wd, qi)
					next[out+i].SetWord(wd, qi)
				}
			}
		}

	case circuit.KindTri:
		en, a := int(ins[0].off), int(ins[1].off)
		k.run = func(cur, next []logic.WidePlane) {
			for wd := 0; wd < words; wd++ {
				e := cur[en].Word(wd).Readable()
				enH, enL := e.HMask(), e.LMask()
				enX := ^(enH | enL)
				for i := 0; i < w; i++ {
					r := cur[a+i].Word(wd).Readable()
					next[out+i].SetWord(wd, logic.Plane{
						V: r.V&enH | enL,
						U: r.U&enH | enL | enX,
					})
				}
			}
		}

	case circuit.KindRes2:
		a, b := int(ins[0].off), int(ins[1].off)
		k.run = func(cur, next []logic.WidePlane) {
			for wd := 0; wd < words; wd++ {
				for i := 0; i < w; i++ {
					next[out+i].SetWord(wd, logic.PlaneResolve(cur[a+i].Word(wd), cur[b+i].Word(wd)))
				}
			}
		}

	case circuit.KindEq:
		a, b := int(ins[0].off), int(ins[1].off)
		aw := int(ins[0].w)
		k.run = func(cur, next []logic.WidePlane) {
			for wd := 0; wd < words; wd++ {
				diff, allKnown := uint64(0), ^uint64(0)
				for i := 0; i < aw; i++ {
					ra, rb := cur[a+i].Word(wd).Readable(), cur[b+i].Word(wd).Readable()
					known := ^(ra.U | rb.U)
					diff |= (ra.V ^ rb.V) & known
					allKnown &= known
				}
				next[out].SetWord(wd, logic.Plane{V: allKnown &^ diff, U: ^(diff | allKnown)})
			}
		}

	case circuit.KindLtU:
		a, b := int(ins[0].off), int(ins[1].off)
		aw := int(ins[0].w)
		k.run = func(cur, next []logic.WidePlane) {
			// MSB-first ripple compare; lanes with any unknown bit poison
			// to X, matching the scalar Uint()-based evaluation.
			for wd := 0; wd < words; wd++ {
				unk, lt, eq := uint64(0), uint64(0), ^uint64(0)
				for i := aw - 1; i >= 0; i-- {
					ra, rb := cur[a+i].Word(wd).Readable(), cur[b+i].Word(wd).Readable()
					unk |= ra.U | rb.U
					lt |= eq & ^ra.V & rb.V
					eq &= ^(ra.V ^ rb.V)
				}
				next[out].SetWord(wd, logic.Plane{V: lt &^ unk, U: unk})
			}
		}

	case circuit.KindAdd:
		k.run = compileAdd(ins, out, w, words, false, -1)
	case circuit.KindSub:
		k.run = compileAdd(ins, out, w, words, true, -1)
	case circuit.KindAddC:
		coutOff := int(lay.off[el.Out[1]])
		k.run = compileAdd(ins, out, w, words, false, coutOff)

	case circuit.KindSlice:
		a := int(ins[0].off) + el.Params.Lo
		k.run = copyPlanes(a, out, w)
	case circuit.KindExt:
		a, aw := int(ins[0].off), int(ins[0].w)
		k.run = func(cur, next []logic.WidePlane) {
			n := w
			if aw < n {
				n = aw
			}
			for i := 0; i < n; i++ {
				copyWide(next[out+i], cur[a+i])
			}
			for i := n; i < w; i++ {
				zeroWide(next[out+i])
			}
		}
	case circuit.KindConcat:
		lo, hi := int(ins[0].off), int(ins[1].off)
		low := int(ins[0].w)
		k.run = func(cur, next []logic.WidePlane) {
			for i := 0; i < low; i++ {
				copyWide(next[out+i], cur[lo+i])
			}
			for i := low; i < w; i++ {
				copyWide(next[out+i], cur[hi+i-low])
			}
		}
	case circuit.KindShlK:
		a := int(ins[0].off)
		sh := el.Params.Shift
		k.run = func(cur, next []logic.WidePlane) {
			for i := w - 1; i >= sh; i-- {
				copyWide(next[out+i], cur[a+i-sh])
			}
			top := sh
			if top > w {
				top = w
			}
			for i := 0; i < top; i++ {
				zeroWide(next[out+i])
			}
		}
	case circuit.KindShrK:
		a := int(ins[0].off)
		sh := el.Params.Shift
		k.run = func(cur, next []logic.WidePlane) {
			for i := 0; i < w-sh; i++ {
				copyWide(next[out+i], cur[a+i+sh])
			}
			from := w - sh
			if from < 0 {
				from = 0
			}
			for i := from; i < w; i++ {
				zeroWide(next[out+i])
			}
		}

	case circuit.KindRedAnd:
		a, aw := int(ins[0].off), int(ins[0].w)
		k.run = func(cur, next []logic.WidePlane) {
			for wd := 0; wd < words; wd++ {
				someL, anyU := uint64(0), uint64(0)
				for i := 0; i < aw; i++ {
					r := cur[a+i].Word(wd).Readable()
					someL |= r.LMask()
					anyU |= r.U
				}
				next[out].SetWord(wd, logic.Plane{V: ^(someL | anyU), U: anyU &^ someL})
			}
		}
	case circuit.KindRedOr:
		a, aw := int(ins[0].off), int(ins[0].w)
		k.run = func(cur, next []logic.WidePlane) {
			for wd := 0; wd < words; wd++ {
				someH, anyU := uint64(0), uint64(0)
				for i := 0; i < aw; i++ {
					r := cur[a+i].Word(wd).Readable()
					someH |= r.HMask()
					anyU |= r.U
				}
				next[out].SetWord(wd, logic.Plane{V: someH, U: anyU &^ someH})
			}
		}
	case circuit.KindRedXor:
		a, aw := int(ins[0].off), int(ins[0].w)
		k.run = func(cur, next []logic.WidePlane) {
			for wd := 0; wd < words; wd++ {
				par, anyU := uint64(0), uint64(0)
				for i := 0; i < aw; i++ {
					r := cur[a+i].Word(wd).Readable()
					par ^= r.V
					anyU |= r.U
				}
				next[out].SetWord(wd, logic.Plane{V: par &^ anyU, U: anyU})
			}
		}

	case circuit.KindMul:
		k.run = compileMul(ins, out, w, words)
	case circuit.KindAlu:
		k.run = compileAlu(ins, out, w, words)
	case circuit.KindRom:
		k.run = compileRom(el, ins, out, w, words)
	case circuit.KindRam:
		k.run, k.state = compileRam(el, ins, out, w, words)

	default:
		// Per-lane scalar fallback for any future kind: correct for every
		// registry element, at scalar speed.
		k.run, k.laneState = compileScalar(el, ins, k.outs, lanes)
	}
	return k
}

func copyPlanes(src, dst, w int) func(cur, next []logic.WidePlane) {
	return func(cur, next []logic.WidePlane) {
		for i := 0; i < w; i++ {
			copyWide(next[dst+i], cur[src+i])
		}
	}
}

// gateOp names the fold operation of a logic gate.
type gateOp int

const (
	opAnd gateOp = iota
	opOr
	opXor
)

func (op gateOp) plane(a, b logic.Plane) logic.Plane {
	switch op {
	case opAnd:
		return logic.PlaneAnd(a, b)
	case opXor:
		return logic.PlaneXor(a, b)
	}
	return logic.PlaneOr(a, b)
}

// compileGate folds a binary plane op across the inputs per bit column and
// plane word, exactly as circuit.evalFold does with scalar values; a
// single-input gate folds with an all-L operand so X/Z normalise the way
// the scalar registry does. Only the shapes the compiler does not fuse
// reach it: three or more inputs, and the one-input and/nand.
func compileGate(ins []span, out, w, words int, op gateOp, invert bool) func(cur, next []logic.WidePlane) {
	offs := make([]int, len(ins))
	for i, sp := range ins {
		offs[i] = int(sp.off)
	}
	single := len(offs) == 1
	return func(cur, next []logic.WidePlane) {
		for i := 0; i < w; i++ {
			dst := next[out+i]
			for wd := 0; wd < words; wd++ {
				acc := cur[offs[0]+i].Word(wd)
				if single {
					acc = op.plane(acc, logic.Plane{})
				}
				for _, o := range offs[1:] {
					acc = op.plane(acc, cur[o+i].Word(wd))
				}
				if invert {
					acc = logic.PlaneNot(acc)
				}
				dst.SetWord(wd, acc)
			}
		}
	}
}

// compileAdd builds ripple-carry addition (or subtraction via two's
// complement) over the bit columns, per plane word. Lanes with any unknown
// input bit poison the whole result to X — the scalar Add/Sub/AddCarry
// semantics. coutOff >= 0 selects the three-input addc form with a carry
// output.
func compileAdd(ins []span, out, w, words int, sub bool, coutOff int) func(cur, next []logic.WidePlane) {
	a, b := int(ins[0].off), int(ins[1].off)
	cin := -1
	if coutOff >= 0 {
		cin = int(ins[2].off)
	}
	return func(cur, next []logic.WidePlane) {
		for wd := 0; wd < words; wd++ {
			var unk uint64
			for i := 0; i < w; i++ {
				unk |= cur[a+i].U[wd] | cur[b+i].U[wd]
			}
			carry := uint64(0)
			if sub {
				carry = ^uint64(0)
			}
			if cin >= 0 {
				r := cur[cin].Word(wd).Readable()
				unk |= r.U
				carry = r.V
			}
			for i := 0; i < w; i++ {
				av := cur[a+i].Word(wd).Readable().V
				bv := cur[b+i].Word(wd).Readable().V
				if sub {
					bv = ^bv
				}
				sum := av ^ bv ^ carry
				carry = av&bv | carry&(av^bv)
				next[out+i].SetWord(wd, logic.Plane{V: sum &^ unk, U: unk})
			}
			if coutOff >= 0 {
				next[coutOff].SetWord(wd, logic.Plane{V: carry &^ unk, U: unk})
			}
		}
	}
}

// compileScalar is the per-lane fallback: unpack each lane's inputs into
// scalar Values, run the element's registry eval with that lane's own
// state, and pack the outputs back. One worker owns the kernel, so the
// scratch buffers and per-lane state race with nobody. The second return
// value exposes the per-lane state (nil for stateless elements) so
// checkpoints can capture and restore it in place.
func compileScalar(el *circuit.Element, ins []span, outs []span, lanes int) (func(cur, next []logic.WidePlane), [][]logic.Value) {
	states := make([][]logic.Value, lanes)
	stateful := el.NumStateVals() > 0
	if stateful {
		for l := range states {
			states[l] = make([]logic.Value, el.NumStateVals())
			el.InitState(states[l])
		}
	}
	in := make([]logic.Value, len(ins))
	out := make([]logic.Value, len(outs))
	run := func(cur, next []logic.WidePlane) {
		for l := 0; l < lanes; l++ {
			for i, sp := range ins {
				in[i] = logic.ExtractLaneWide(cur[sp.off:sp.off+sp.w], l, int(sp.w))
			}
			el.Eval(in, states[l], out)
			for i, sp := range outs {
				logic.PackLaneWide(next[sp.off:sp.off+sp.w], l, out[i])
			}
		}
	}
	if !stateful {
		return run, nil
	}
	return run, states
}

// genKernel is one stimulus generator: clock/wave/const outputs are lane-
// invariant and broadcast; rand/gray get one per-lane element copy whose
// Seed is offset by the lane stride, so each lane replays an independent
// stimulus vector (lane 0 keeps the original seed and is bit-identical to
// a scalar run).
//
// A generator's output is a pure function of time that changes only at
// GenNextChange times, so the kernel evaluates it only then (due). The
// step after a change copies the new value into the other buffer side
// (stale); from then on both sides hold it and the kernel does nothing.
// The per-lane copies share Period, so one schedule serves every lane. A
// fresh kernel (due 0) evaluates at its first step, so a run that starts
// or resumes at any step takes up the schedule there.
type genKernel struct {
	el      *circuit.Element
	out     span
	perLane []circuit.Element

	due   circuit.Time // the next time whose value must be evaluated
	stale bool         // only the side written last holds the value
}

func compileGen(c *circuit.Circuit, el *circuit.Element, lay layout, lanes int, stride int64) genKernel {
	g := genKernel{el: el, out: lay.span(c, el.Out[0])}
	if (el.Kind == circuit.KindRand || el.Kind == circuit.KindGray) && lanes > 1 && stride != 0 {
		g.perLane = make([]circuit.Element, lanes)
		for l := range g.perLane {
			cp := *el
			cp.Params.Seed += stride * int64(l)
			g.perLane[l] = cp
		}
	}
	return g
}

// write evaluates the generator at time t into the destination buffer.
func (g *genKernel) write(t circuit.Time, dst []logic.WidePlane) {
	o, w := int(g.out.off), int(g.out.w)
	if g.perLane == nil {
		logic.BroadcastValueWide(dst[o:o+w], g.el.GenValueAt(t))
		return
	}
	for l := range g.perLane {
		logic.PackLaneWide(dst[o:o+w], l, g.perLane[l].GenValueAt(t))
	}
}

// step advances the generator from time t (side cur) to t+1 (side next)
// and reports whether it evaluated, i.e. whether next may differ from cur.
func (g *genKernel) step(t circuit.Time, cur, next []logic.WidePlane) bool {
	if t+1 < g.due {
		if g.stale {
			o, w := int(g.out.off), int(g.out.w)
			for b := o; b < o+w; b++ {
				copyWide(next[b], cur[b])
			}
			g.stale = false
		}
		return false
	}
	g.write(t+1, next)
	g.due, g.stale = math.MaxInt64, true
	if c, ok := g.el.GenNextChange(t + 1); ok {
		g.due = c
	}
	return true
}

// fresh reports, after step, whether that step evaluated the generator.
func (g *genKernel) fresh() bool { return g.stale }

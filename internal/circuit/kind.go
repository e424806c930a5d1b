// Package circuit defines the simulated object shared by all four
// simulators: a netlist of elements connected by nodes.
//
// Elements span the representation levels the paper simulates — simple
// gates, RTL registers and muxes, and functional blocks such as wide adders,
// multipliers, ALUs and memories. Each element kind has a pure evaluation
// function of (inputs, internal state); because every element has an output
// delay of at least one tick, node histories are deterministic regardless of
// the order in which a simulator chooses to evaluate elements. That property
// is what lets the synchronous, compiled and asynchronous simulators be
// cross-checked event for event.
package circuit

import (
	"fmt"

	"parsim/internal/logic"
)

// Time is a simulation timestamp in integer ticks.
type Time int64

// Kind identifies an element type.
type Kind uint8

// Element kinds. Gate kinds accept a variable number of inputs; functional
// kinds have fixed ports described in kindInfo.
const (
	KindInvalid Kind = iota

	// Gates (n inputs, 1 output, all ports the same width).
	KindBuf
	KindNot
	KindAnd
	KindOr
	KindNand
	KindNor
	KindXor
	KindXnor

	// RTL primitives.
	KindMux2  // in: sel(1), a, b       out: y
	KindDFF   // in: clk(1), d          out: q        state: prev clk, q
	KindDFFR  // in: clk(1), rst(1), d  out: q        state: prev clk, q
	KindLatch // in: en(1), d           out: q        state: q
	KindTri   // in: en(1), a           out: y (Z when en=0)
	KindRes2  // in: a, b               out: wired resolution of a and b

	// Functional blocks.
	KindConst  // out: y (Params.Init)
	KindAdd    // in: a, b               out: sum
	KindAddC   // in: a, b, cin(1)       out: sum, cout(1)
	KindSub    // in: a, b               out: diff
	KindMul    // in: a, b               out: product (width of out)
	KindEq     // in: a, b               out: eq(1)
	KindLtU    // in: a, b               out: lt(1), unsigned
	KindSlice  // in: a                  out: a[Lo : Lo+width(out)]
	KindExt    // in: a                  out: a zero-extended to width(out)
	KindConcat // in: lo, hi             out: {hi, lo}
	KindShlK   // in: a                  out: a << Params.Shift
	KindShrK   // in: a                  out: a >> Params.Shift
	KindRedAnd // in: a                  out: &a (1)
	KindRedOr  // in: a                  out: |a (1)
	KindRedXor // in: a                  out: ^a (1)
	KindAlu    // in: op(3), a, b        out: y
	KindRom    // in: addr               out: data (Params.Mem)
	KindRam    // in: clk(1), we(1), addr, wdata  out: rdata  state: prev clk + words

	// Generators: no inputs; the output waveform is a pure function of time.
	KindClock // Params.Period, Phase, Duty
	KindWave  // Params.Times/Values, holds last value
	KindRand  // new pseudo-random value every Params.Period, Params.Seed
	KindGray  // Gray-code counter: one bit changes every Params.Period

	kindMax
)

// ALU operation codes for KindAlu's 3-bit op input.
const (
	AluAdd uint64 = iota
	AluSub
	AluAnd
	AluOr
	AluXor
	AluShl1
	AluShr1
	AluPassB
)

// Params carries kind-specific configuration. Unused fields are ignored by
// kinds that do not need them.
type Params struct {
	Init   logic.Value   // KindConst value; also a node-independent reset value for DFFR
	Period Time          // KindClock, KindRand
	Phase  Time          // KindClock: time of first rising edge
	Duty   Time          // KindClock: ticks spent high per period (0 = Period/2)
	Times  []Time        // KindWave: strictly increasing change times
	Values []logic.Value // KindWave: value assumed at the matching time
	Mem    []uint64      // KindRom contents; KindRam initial contents (optional)
	Lo     int           // KindSlice low bit
	Shift  int           // KindShlK / KindShrK amount
	Seed   int64         // KindRand
}

// EvalFunc computes an element's outputs from its current inputs and
// internal state, writing results into out (len = number of outputs). It may
// mutate state. Implementations must be deterministic.
type EvalFunc func(el *Element, in, state, out []logic.Value)

// kindInfo describes the static shape of an element kind.
type kindInfo struct {
	name     string
	minIn    int // -1: exactly ports below
	maxIn    int // 0 with minIn>0: unbounded
	outs     int
	stateLen func(el *Element) int
	cost     int64 // default evaluation cost in inverter-units (paper §2.1: 1..100)
	eval     EvalFunc
	generate bool                          // true for generator kinds (no inputs)
	check    func(el *Element, c *checker) // extra width/port validation
}

var kinds [kindMax]kindInfo

func info(k Kind) *kindInfo {
	if k == KindInvalid || k >= kindMax || kinds[k].name == "" {
		panic(fmt.Sprintf("circuit: invalid kind %d", k))
	}
	return &kinds[k]
}

// KindName returns the canonical lower-case name of k, as used by the
// netlist format.
func KindName(k Kind) string { return info(k).name }

// AllKinds returns every registered element kind in declaration order, so
// kind-generic tests (the plane-kernel truth-table suite, netlist coverage)
// can iterate the registry instead of hand-listing kinds.
func AllKinds() []Kind {
	out := make([]Kind, 0, int(kindMax)-1)
	for k := Kind(1); k < kindMax; k++ {
		if kinds[k].name != "" {
			out = append(out, k)
		}
	}
	return out
}

// KindByName resolves a netlist kind name; ok is false if unknown.
func KindByName(name string) (Kind, bool) {
	for k := Kind(1); k < kindMax; k++ {
		if kinds[k].name == name {
			return k, true
		}
	}
	return KindInvalid, false
}

// IsGenerator reports whether k is a stimulus generator (no inputs, output a
// pure function of time).
func IsGenerator(k Kind) bool { return info(k).generate }

// DefaultCost returns the kind's evaluation cost in inverter-units used by
// the virtual machine model and the cost-balancing partitioner.
func DefaultCost(k Kind) int64 { return info(k).cost }

// TriggerPorts returns the input ports whose events alone can change the
// element's outputs, or nil when every input is a trigger. A D flip-flop's
// output moves only on clock events; its data input merely selects the
// captured value. The asynchronous simulator exploits this as lookahead:
// between trigger events the output's valid-time can leap forward, which
// collapses the valid-time creep around register feedback loops.
func TriggerPorts(k Kind) []int {
	switch k {
	case KindDFF:
		return dffTrig[:]
	case KindDFFR:
		return dffrTrig[:]
	case KindRam:
		return ramTrig[:]
	}
	return nil
}

// TriggerActs reports whether an event to v on one of TriggerPorts(k) can
// change the element's outputs. A flip-flop's clock acts only at a rising
// edge and a dffr's reset only while high, so an event to L on either
// changes nothing: a falling clock edge bounds no lookahead. Every other
// value, X and Z included, is taken to act, and so is every event on
// another kind's trigger ports.
func TriggerActs(k Kind, v logic.Value) bool {
	switch k {
	case KindDFF, KindDFFR:
		return v.State() != logic.L
	}
	return true
}

var (
	dffTrig  = [...]int{0}    // clk
	dffrTrig = [...]int{0, 1} // clk, rst
	ramTrig  = [...]int{0, 2} // clk, addr (reads are combinational in addr)
)

// ControllingValue returns, for gates that have one, the input state that
// pins the output regardless of the other inputs: 0 for AND/NAND, 1 for
// OR/NOR. ok is false for every other kind. The paper's section 4 example:
// "if e2 is an AND gate and node 2 is 0 from time 0 until time 25 ...
// any events on node 4 between times 0 and 25 can be ignored."
func ControllingValue(k Kind) (v logic.State, ok bool) {
	switch k {
	case KindAnd, KindNand:
		return logic.L, true
	case KindOr, KindNor:
		return logic.H, true
	}
	return 0, false
}

// controlled reports whether the bus value pins a gate with the given
// controlling state: every bit at the controlling level.
func Controlled(val logic.Value, ctrl logic.State) bool {
	for i := 0; i < val.Width(); i++ {
		if val.Bit(i) != ctrl {
			return false
		}
	}
	return true
}

func statelessLen(*Element) int { return 0 }

func init() {
	gate := func(name string, minIn int, cost int64, eval EvalFunc) kindInfo {
		return kindInfo{name: name, minIn: minIn, maxIn: 0, outs: 1,
			stateLen: statelessLen, cost: cost, eval: eval, check: checkGate}
	}
	kinds[KindBuf] = gate("buf", 1, 1, evalFold(func(a, b logic.Value) logic.Value { return a.Or(b) }, false))
	kinds[KindNot] = gate("not", 1, 1, evalFold(func(a, b logic.Value) logic.Value { return a.Or(b) }, true))
	kinds[KindAnd] = gate("and", 2, 1, evalFold(logic.Value.And, false))
	kinds[KindOr] = gate("or", 2, 1, evalFold(logic.Value.Or, false))
	kinds[KindNand] = gate("nand", 2, 1, evalFold(logic.Value.And, true))
	kinds[KindNor] = gate("nor", 2, 1, evalFold(logic.Value.Or, true))
	kinds[KindXor] = gate("xor", 2, 1, evalFold(logic.Value.Xor, false))
	kinds[KindXnor] = gate("xnor", 2, 1, evalFold(logic.Value.Xor, true))

	kinds[KindMux2] = kindInfo{name: "mux2", minIn: -1, maxIn: 3, outs: 1,
		stateLen: statelessLen, cost: 2, eval: evalMux2, check: checkMux2}
	kinds[KindDFF] = kindInfo{name: "dff", minIn: -1, maxIn: 2, outs: 1,
		stateLen: func(*Element) int { return 2 }, cost: 3, eval: evalDFF, check: checkDFF}
	kinds[KindDFFR] = kindInfo{name: "dffr", minIn: -1, maxIn: 3, outs: 1,
		stateLen: func(*Element) int { return 2 }, cost: 3, eval: evalDFFR, check: checkDFFR}
	kinds[KindLatch] = kindInfo{name: "latch", minIn: -1, maxIn: 2, outs: 1,
		stateLen: func(*Element) int { return 1 }, cost: 2, eval: evalLatch, check: checkDFF}
	kinds[KindTri] = kindInfo{name: "tri", minIn: -1, maxIn: 2, outs: 1,
		stateLen: statelessLen, cost: 1, eval: evalTri, check: checkDFF}
	kinds[KindRes2] = kindInfo{name: "res2", minIn: -1, maxIn: 2, outs: 1,
		stateLen: statelessLen, cost: 1, eval: evalRes2, check: checkSameWidth}

	kinds[KindConst] = kindInfo{name: "const", minIn: -1, maxIn: 0, outs: 1,
		stateLen: statelessLen, cost: 1, eval: evalConst, generate: true, check: checkConst}
	kinds[KindAdd] = kindInfo{name: "add", minIn: -1, maxIn: 2, outs: 1,
		stateLen: statelessLen, cost: 20, eval: evalAdd, check: checkSameWidth}
	kinds[KindAddC] = kindInfo{name: "addc", minIn: -1, maxIn: 3, outs: 2,
		stateLen: statelessLen, cost: 20, eval: evalAddC, check: checkAddC}
	kinds[KindSub] = kindInfo{name: "sub", minIn: -1, maxIn: 2, outs: 1,
		stateLen: statelessLen, cost: 20, eval: evalSub, check: checkSameWidth}
	kinds[KindMul] = kindInfo{name: "mul", minIn: -1, maxIn: 2, outs: 1,
		stateLen: statelessLen, cost: 60, eval: evalMul, check: nil}
	kinds[KindEq] = kindInfo{name: "eq", minIn: -1, maxIn: 2, outs: 1,
		stateLen: statelessLen, cost: 5, eval: evalEq, check: checkCmp}
	kinds[KindLtU] = kindInfo{name: "ltu", minIn: -1, maxIn: 2, outs: 1,
		stateLen: statelessLen, cost: 5, eval: evalLtU, check: checkCmp}
	kinds[KindSlice] = kindInfo{name: "slice", minIn: -1, maxIn: 1, outs: 1,
		stateLen: statelessLen, cost: 1, eval: evalSlice, check: checkSlice}
	kinds[KindExt] = kindInfo{name: "ext", minIn: -1, maxIn: 1, outs: 1,
		stateLen: statelessLen, cost: 1, eval: evalExt, check: checkExt}
	kinds[KindConcat] = kindInfo{name: "concat", minIn: -1, maxIn: 2, outs: 1,
		stateLen: statelessLen, cost: 1, eval: evalConcat, check: checkConcat}
	kinds[KindShlK] = kindInfo{name: "shlk", minIn: -1, maxIn: 1, outs: 1,
		stateLen: statelessLen, cost: 1, eval: evalShlK, check: checkShift}
	kinds[KindShrK] = kindInfo{name: "shrk", minIn: -1, maxIn: 1, outs: 1,
		stateLen: statelessLen, cost: 1, eval: evalShrK, check: checkShift}
	kinds[KindRedAnd] = kindInfo{name: "redand", minIn: -1, maxIn: 1, outs: 1,
		stateLen: statelessLen, cost: 2, eval: evalRedAnd, check: checkRed}
	kinds[KindRedOr] = kindInfo{name: "redor", minIn: -1, maxIn: 1, outs: 1,
		stateLen: statelessLen, cost: 2, eval: evalRedOr, check: checkRed}
	kinds[KindRedXor] = kindInfo{name: "redxor", minIn: -1, maxIn: 1, outs: 1,
		stateLen: statelessLen, cost: 2, eval: evalRedXor, check: checkRed}
	kinds[KindAlu] = kindInfo{name: "alu", minIn: -1, maxIn: 3, outs: 1,
		stateLen: statelessLen, cost: 40, eval: evalAlu, check: checkAlu}
	kinds[KindRom] = kindInfo{name: "rom", minIn: -1, maxIn: 1, outs: 1,
		stateLen: statelessLen, cost: 10, eval: evalRom, check: checkRom}
	kinds[KindRam] = kindInfo{name: "ram", minIn: -1, maxIn: 4, outs: 1,
		stateLen: ramStateLen, cost: 30, eval: evalRam, check: checkRam}

	kinds[KindClock] = kindInfo{name: "clock", minIn: -1, maxIn: 0, outs: 1,
		stateLen: statelessLen, cost: 1, eval: nil, generate: true, check: checkClock}
	kinds[KindWave] = kindInfo{name: "wave", minIn: -1, maxIn: 0, outs: 1,
		stateLen: statelessLen, cost: 1, eval: nil, generate: true, check: checkWave}
	kinds[KindRand] = kindInfo{name: "rand", minIn: -1, maxIn: 0, outs: 1,
		stateLen: statelessLen, cost: 1, eval: nil, generate: true, check: checkRand}
	kinds[KindGray] = kindInfo{name: "gray", minIn: -1, maxIn: 0, outs: 1,
		stateLen: statelessLen, cost: 1, eval: nil, generate: true, check: checkRand}
}

// evalFold builds the evaluation function of an n-input gate by folding a
// binary logic op, optionally inverting the result. Single-input buf/not
// fold with a second operand of all zeros, which is the identity for Or.
func evalFold(op func(a, b logic.Value) logic.Value, invert bool) EvalFunc {
	return func(el *Element, in, state, out []logic.Value) {
		acc := in[0]
		if len(in) == 1 {
			acc = op(acc, logic.V(acc.Width(), 0))
		}
		for _, v := range in[1:] {
			acc = op(acc, v)
		}
		if invert {
			acc = acc.Not()
		}
		out[0] = acc
	}
}

func evalMux2(el *Element, in, state, out []logic.Value) {
	out[0] = logic.Mux(in[0], in[1], in[2])
}

// risingEdge updates the stored previous clock and reports whether this
// evaluation sees a 0 -> 1 transition.
func risingEdge(state []logic.Value, clk logic.Value) bool {
	prev := state[0]
	state[0] = clk
	return prev.State() == logic.L && clk.State() == logic.H
}

func evalDFF(el *Element, in, state, out []logic.Value) {
	if risingEdge(state, in[0]) {
		state[1] = in[1].Not().Not() // normalise Z -> X on capture
	}
	out[0] = state[1]
}

func evalDFFR(el *Element, in, state, out []logic.Value) {
	edge := risingEdge(state, in[0])
	if in[1].State() == logic.H { // synchronous-priority asynchronous clear
		state[1] = el.Params.Init
	} else if edge {
		state[1] = in[2].Not().Not()
	}
	out[0] = state[1]
}

func evalLatch(el *Element, in, state, out []logic.Value) {
	if in[0].State() == logic.H {
		state[0] = in[1].Not().Not()
	}
	out[0] = state[0]
}

func evalTri(el *Element, in, state, out []logic.Value) {
	switch in[0].State() {
	case logic.H:
		out[0] = in[1].Not().Not()
	case logic.L:
		out[0] = logic.AllZ(in[1].Width())
	default:
		out[0] = logic.AllX(in[1].Width())
	}
}

func evalRes2(el *Element, in, state, out []logic.Value) {
	out[0] = logic.Resolve(in[0], in[1])
}

func evalConst(el *Element, in, state, out []logic.Value) { out[0] = el.Params.Init }

func evalAdd(el *Element, in, state, out []logic.Value) { out[0] = in[0].Add(in[1]) }

func evalAddC(el *Element, in, state, out []logic.Value) {
	out[0], out[1] = in[0].AddCarry(in[1], in[2])
}

func evalSub(el *Element, in, state, out []logic.Value) { out[0] = in[0].Sub(in[1]) }

func evalMul(el *Element, in, state, out []logic.Value) {
	out[0] = logic.Mul(in[0], in[1], el.outWidth(0))
}

func evalEq(el *Element, in, state, out []logic.Value) { out[0] = in[0].Eq(in[1]) }

func evalLtU(el *Element, in, state, out []logic.Value) {
	a, aok := in[0].Uint()
	b, bok := in[1].Uint()
	if !aok || !bok {
		out[0] = logic.AllX(1)
		return
	}
	if a < b {
		out[0] = logic.V(1, 1)
	} else {
		out[0] = logic.V(1, 0)
	}
}

func evalSlice(el *Element, in, state, out []logic.Value) {
	out[0] = in[0].Slice(el.Params.Lo, el.outWidth(0))
}

func evalExt(el *Element, in, state, out []logic.Value) {
	out[0] = in[0].Extend(el.outWidth(0))
}

func evalConcat(el *Element, in, state, out []logic.Value) {
	out[0] = in[0].Concat(in[1])
}

func evalShlK(el *Element, in, state, out []logic.Value) {
	out[0] = in[0].ShiftLeft(el.Params.Shift)
}

func evalShrK(el *Element, in, state, out []logic.Value) {
	out[0] = in[0].ShiftRight(el.Params.Shift)
}

func evalRedAnd(el *Element, in, state, out []logic.Value) { out[0] = in[0].ReduceAnd() }
func evalRedOr(el *Element, in, state, out []logic.Value)  { out[0] = in[0].ReduceOr() }
func evalRedXor(el *Element, in, state, out []logic.Value) { out[0] = in[0].ReduceXor() }

func evalAlu(el *Element, in, state, out []logic.Value) {
	op, ok := in[0].Uint()
	a, b := in[1], in[2]
	if !ok {
		out[0] = logic.AllX(a.Width())
		return
	}
	switch op {
	case AluAdd:
		out[0] = a.Add(b)
	case AluSub:
		out[0] = a.Sub(b)
	case AluAnd:
		out[0] = a.And(b)
	case AluOr:
		out[0] = a.Or(b)
	case AluXor:
		out[0] = a.Xor(b)
	case AluShl1:
		out[0] = a.ShiftLeft(1)
	case AluShr1:
		out[0] = a.ShiftRight(1)
	default: // AluPassB
		out[0] = b.Not().Not()
	}
}

func evalRom(el *Element, in, state, out []logic.Value) {
	w := el.outWidth(0)
	addr, ok := in[0].Uint()
	if !ok || addr >= uint64(len(el.Params.Mem)) {
		out[0] = logic.AllX(w)
		return
	}
	out[0] = logic.V(w, el.Params.Mem[addr])
}

func ramStateLen(el *Element) int {
	// state[0] holds the previous clock; the rest are the memory words, one
	// per address covered by the address input width.
	return 1 + (1 << uint(el.inWidth(2)))
}

func evalRam(el *Element, in, state, out []logic.Value) {
	clk, we, addr, wdata := in[0], in[1], in[2], in[3]
	edge := risingEdge(state, clk)
	a, aok := addr.Uint()
	if edge && we.State() == logic.H {
		if aok {
			state[1+a] = wdata.Not().Not()
		} else {
			// Writing to an unknown address poisons the whole memory: the
			// conservative choice, and the one that surfaces control bugs.
			for i := 1; i < len(state); i++ {
				state[i] = logic.AllX(wdata.Width())
			}
		}
	}
	if !aok {
		out[0] = logic.AllX(el.outWidth(0))
		return
	}
	out[0] = state[1+a]
}

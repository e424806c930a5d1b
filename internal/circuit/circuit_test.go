package circuit

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"parsim/internal/logic"
)

// buildOne builds a single-element circuit with generator-driven inputs so
// element evaluation can be tested in isolation.
func buildOne(t *testing.T, kind Kind, inWidths []int, outWidths []int, params Params) (*Circuit, *Element) {
	t.Helper()
	b := NewBuilder("one")
	ins := make([]NodeID, len(inWidths))
	for i, w := range inWidths {
		n := b.Node(nodeName("in", i), w)
		b.Const(nodeName("drv", i), n, logic.AllX(w))
		ins[i] = n
	}
	outs := make([]NodeID, len(outWidths))
	for i, w := range outWidths {
		outs[i] = b.Node(nodeName("out", i), w)
	}
	b.AddElement(kind, "dut", 1, outs, ins, params)
	c, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return c, &c.Elems[c.ElByName["dut"]]
}

func nodeName(prefix string, i int) string {
	return prefix + string(rune('a'+i))
}

// evalOnce evaluates an element against explicit inputs with fresh state.
func evalOnce(el *Element, in ...logic.Value) []logic.Value {
	state := make([]logic.Value, el.NumStateVals())
	el.InitState(state)
	out := make([]logic.Value, len(el.Out))
	el.Eval(in, state, out)
	return out
}

func TestGateEval(t *testing.T) {
	one, zero := logic.V(1, 1), logic.V(1, 0)
	cases := []struct {
		kind Kind
		in   []logic.Value
		want logic.Value
	}{
		{KindBuf, []logic.Value{one}, one},
		{KindNot, []logic.Value{one}, zero},
		{KindAnd, []logic.Value{one, one, zero}, zero},
		{KindAnd, []logic.Value{one, one, one}, one},
		{KindOr, []logic.Value{zero, zero, one}, one},
		{KindNand, []logic.Value{one, one}, zero},
		{KindNor, []logic.Value{zero, zero}, one},
		{KindXor, []logic.Value{one, one, one}, one},
		{KindXnor, []logic.Value{one, zero}, zero},
	}
	for _, tc := range cases {
		widths := make([]int, len(tc.in))
		for i := range widths {
			widths[i] = 1
		}
		_, el := buildOne(t, tc.kind, widths, []int{1}, Params{})
		got := evalOnce(el, tc.in...)[0]
		if !got.Equal(tc.want) {
			t.Errorf("%s%v = %v, want %v", KindName(tc.kind), tc.in, got, tc.want)
		}
	}
}

func TestMux2Eval(t *testing.T) {
	_, el := buildOne(t, KindMux2, []int{1, 8, 8}, []int{8}, Params{})
	a, b := logic.V(8, 0x11), logic.V(8, 0x22)
	if got := evalOnce(el, logic.V(1, 0), a, b)[0]; !got.Equal(a) {
		t.Errorf("mux sel=0 = %v", got)
	}
	if got := evalOnce(el, logic.V(1, 1), a, b)[0]; !got.Equal(b) {
		t.Errorf("mux sel=1 = %v", got)
	}
}

func TestDFFEdgeBehaviour(t *testing.T) {
	_, el := buildOne(t, KindDFF, []int{1, 4}, []int{4}, Params{})
	state := make([]logic.Value, el.NumStateVals())
	el.InitState(state)
	out := make([]logic.Value, 1)

	// Initially q is X.
	el.Eval([]logic.Value{logic.V(1, 0), logic.V(4, 5)}, state, out)
	if !out[0].Equal(logic.AllX(4)) {
		t.Fatalf("q before first edge = %v, want X", out[0])
	}
	// Rising edge captures d.
	el.Eval([]logic.Value{logic.V(1, 1), logic.V(4, 5)}, state, out)
	if got := out[0].MustUint(); got != 5 {
		t.Fatalf("q after edge = %d, want 5", got)
	}
	// High clock with changing d does not capture.
	el.Eval([]logic.Value{logic.V(1, 1), logic.V(4, 9)}, state, out)
	if got := out[0].MustUint(); got != 5 {
		t.Fatalf("q while high = %d, want 5", got)
	}
	// Falling edge does not capture.
	el.Eval([]logic.Value{logic.V(1, 0), logic.V(4, 9)}, state, out)
	if got := out[0].MustUint(); got != 5 {
		t.Fatalf("q after fall = %d, want 5", got)
	}
	// Second rising edge captures the new value.
	el.Eval([]logic.Value{logic.V(1, 1), logic.V(4, 9)}, state, out)
	if got := out[0].MustUint(); got != 9 {
		t.Fatalf("q after 2nd edge = %d, want 9", got)
	}
}

func TestDFFXClockDoesNotCapture(t *testing.T) {
	_, el := buildOne(t, KindDFF, []int{1, 4}, []int{4}, Params{})
	state := make([]logic.Value, el.NumStateVals())
	el.InitState(state)
	out := make([]logic.Value, 1)
	// X -> 1 is not a clean rising edge.
	el.Eval([]logic.Value{logic.V(1, 1), logic.V(4, 5)}, state, out)
	if !out[0].Equal(logic.AllX(4)) {
		t.Fatalf("q after X->1 = %v, want X", out[0])
	}
	// Now 1 -> 0 -> 1 is a clean edge.
	el.Eval([]logic.Value{logic.V(1, 0), logic.V(4, 5)}, state, out)
	el.Eval([]logic.Value{logic.V(1, 1), logic.V(4, 5)}, state, out)
	if got := out[0].MustUint(); got != 5 {
		t.Fatalf("q after clean edge = %d, want 5", got)
	}
}

func TestDFFREval(t *testing.T) {
	_, el := buildOne(t, KindDFFR, []int{1, 1, 4}, []int{4},
		Params{Init: logic.V(4, 0)})
	state := make([]logic.Value, el.NumStateVals())
	el.InitState(state)
	out := make([]logic.Value, 1)
	// Reset forces the init value even without a clock edge.
	el.Eval([]logic.Value{logic.V(1, 0), logic.V(1, 1), logic.V(4, 7)}, state, out)
	if got := out[0].MustUint(); got != 0 {
		t.Fatalf("q under reset = %d, want 0", got)
	}
	// Release reset, clock in a value.
	el.Eval([]logic.Value{logic.V(1, 1), logic.V(1, 0), logic.V(4, 7)}, state, out)
	if got := out[0].MustUint(); got != 7 {
		t.Fatalf("q after edge = %d, want 7", got)
	}
	// Reset dominates a simultaneous edge.
	el.Eval([]logic.Value{logic.V(1, 0), logic.V(1, 0), logic.V(4, 3)}, state, out)
	el.Eval([]logic.Value{logic.V(1, 1), logic.V(1, 1), logic.V(4, 3)}, state, out)
	if got := out[0].MustUint(); got != 0 {
		t.Fatalf("q with reset+edge = %d, want 0", got)
	}
}

func TestLatchEval(t *testing.T) {
	_, el := buildOne(t, KindLatch, []int{1, 4}, []int{4}, Params{})
	state := make([]logic.Value, el.NumStateVals())
	el.InitState(state)
	out := make([]logic.Value, 1)
	el.Eval([]logic.Value{logic.V(1, 1), logic.V(4, 6)}, state, out)
	if got := out[0].MustUint(); got != 6 {
		t.Fatalf("transparent latch = %d, want 6", got)
	}
	el.Eval([]logic.Value{logic.V(1, 0), logic.V(4, 9)}, state, out)
	if got := out[0].MustUint(); got != 6 {
		t.Fatalf("opaque latch = %d, want 6", got)
	}
}

func TestTriAndRes2(t *testing.T) {
	_, tri := buildOne(t, KindTri, []int{1, 4}, []int{4}, Params{})
	if got := evalOnce(tri, logic.V(1, 0), logic.V(4, 5))[0]; !got.Equal(logic.AllZ(4)) {
		t.Errorf("tri disabled = %v, want Z", got)
	}
	if got := evalOnce(tri, logic.V(1, 1), logic.V(4, 5))[0]; got.MustUint() != 5 {
		t.Errorf("tri enabled = %v", got)
	}
	if got := evalOnce(tri, logic.AllX(1), logic.V(4, 5))[0]; !got.Equal(logic.AllX(4)) {
		t.Errorf("tri with X enable = %v, want X", got)
	}
	_, res := buildOne(t, KindRes2, []int{4, 4}, []int{4}, Params{})
	if got := evalOnce(res, logic.AllZ(4), logic.V(4, 5))[0]; got.MustUint() != 5 {
		t.Errorf("res2(Z, 5) = %v", got)
	}
}

func TestArithmeticElements(t *testing.T) {
	_, add := buildOne(t, KindAdd, []int{8, 8}, []int{8}, Params{})
	if got := evalOnce(add, logic.V(8, 200), logic.V(8, 100))[0].MustUint(); got != 44 {
		t.Errorf("add = %d", got)
	}
	_, addc := buildOne(t, KindAddC, []int{4, 4, 1}, []int{4, 1}, Params{})
	outs := evalOnce(addc, logic.V(4, 9), logic.V(4, 8), logic.V(1, 1))
	if outs[0].MustUint() != 2 || outs[1].MustUint() != 1 {
		t.Errorf("addc = %v carry %v", outs[0], outs[1])
	}
	_, sub := buildOne(t, KindSub, []int{8, 8}, []int{8}, Params{})
	if got := evalOnce(sub, logic.V(8, 5), logic.V(8, 7))[0].MustUint(); got != 254 {
		t.Errorf("sub = %d", got)
	}
	_, mul := buildOne(t, KindMul, []int{8, 8}, []int{16}, Params{})
	if got := evalOnce(mul, logic.V(8, 20), logic.V(8, 30))[0].MustUint(); got != 600 {
		t.Errorf("mul = %d", got)
	}
	_, eq := buildOne(t, KindEq, []int{8, 8}, []int{1}, Params{})
	if got := evalOnce(eq, logic.V(8, 5), logic.V(8, 5))[0].State(); got != logic.H {
		t.Errorf("eq = %v", got)
	}
	_, lt := buildOne(t, KindLtU, []int{8, 8}, []int{1}, Params{})
	if got := evalOnce(lt, logic.V(8, 5), logic.V(8, 7))[0].State(); got != logic.H {
		t.Errorf("ltu(5,7) = %v", got)
	}
	if got := evalOnce(lt, logic.V(8, 7), logic.V(8, 5))[0].State(); got != logic.L {
		t.Errorf("ltu(7,5) = %v", got)
	}
	if got := evalOnce(lt, logic.AllX(8), logic.V(8, 5))[0].State(); got != logic.X {
		t.Errorf("ltu(X,5) = %v", got)
	}
}

func TestBitSelectElements(t *testing.T) {
	_, sl := buildOne(t, KindSlice, []int{8}, []int{4}, Params{Lo: 4})
	if got := evalOnce(sl, logic.V(8, 0xA5))[0].MustUint(); got != 0xA {
		t.Errorf("slice = %x", got)
	}
	_, cc := buildOne(t, KindConcat, []int{4, 4}, []int{8}, Params{})
	if got := evalOnce(cc, logic.V(4, 0x5), logic.V(4, 0xA))[0].MustUint(); got != 0xA5 {
		t.Errorf("concat = %x", got)
	}
	_, shl := buildOne(t, KindShlK, []int{8}, []int{8}, Params{Shift: 3})
	if got := evalOnce(shl, logic.V(8, 1))[0].MustUint(); got != 8 {
		t.Errorf("shlk = %d", got)
	}
	_, shr := buildOne(t, KindShrK, []int{8}, []int{8}, Params{Shift: 3})
	if got := evalOnce(shr, logic.V(8, 8))[0].MustUint(); got != 1 {
		t.Errorf("shrk = %d", got)
	}
	_, ra := buildOne(t, KindRedAnd, []int{4}, []int{1}, Params{})
	if got := evalOnce(ra, logic.V(4, 0xF))[0].State(); got != logic.H {
		t.Errorf("redand = %v", got)
	}
	_, ro := buildOne(t, KindRedOr, []int{4}, []int{1}, Params{})
	if got := evalOnce(ro, logic.V(4, 0))[0].State(); got != logic.L {
		t.Errorf("redor = %v", got)
	}
	_, rx := buildOne(t, KindRedXor, []int{4}, []int{1}, Params{})
	if got := evalOnce(rx, logic.V(4, 0b0111))[0].State(); got != logic.H {
		t.Errorf("redxor = %v", got)
	}
}

func TestAluEval(t *testing.T) {
	_, alu := buildOne(t, KindAlu, []int{3, 8, 8}, []int{8}, Params{})
	a, b := logic.V(8, 12), logic.V(8, 10)
	cases := map[uint64]uint64{
		AluAdd:   22,
		AluSub:   2,
		AluAnd:   8,
		AluOr:    14,
		AluXor:   6,
		AluShl1:  24,
		AluShr1:  6,
		AluPassB: 10,
	}
	for op, want := range cases {
		got := evalOnce(alu, logic.V(3, op), a, b)[0].MustUint()
		if got != want {
			t.Errorf("alu op %d = %d, want %d", op, got, want)
		}
	}
	if got := evalOnce(alu, logic.AllX(3), a, b)[0]; !got.Equal(logic.AllX(8)) {
		t.Errorf("alu with X op = %v", got)
	}
}

func TestRomEval(t *testing.T) {
	_, rom := buildOne(t, KindRom, []int{2}, []int{8},
		Params{Mem: []uint64{10, 20, 30, 40}})
	for addr, want := range []uint64{10, 20, 30, 40} {
		got := evalOnce(rom, logic.V(2, uint64(addr)))[0].MustUint()
		if got != want {
			t.Errorf("rom[%d] = %d, want %d", addr, got, want)
		}
	}
	if got := evalOnce(rom, logic.AllX(2))[0]; !got.Equal(logic.AllX(8)) {
		t.Errorf("rom[X] = %v", got)
	}
}

func TestRamEval(t *testing.T) {
	_, ram := buildOne(t, KindRam, []int{1, 1, 3, 8}, []int{8}, Params{})
	if ram.NumStateVals() != 1+8 {
		t.Fatalf("ram state len = %d", ram.NumStateVals())
	}
	state := make([]logic.Value, ram.NumStateVals())
	ram.InitState(state)
	out := make([]logic.Value, 1)
	lo, hi := logic.V(1, 0), logic.V(1, 1)
	addr := logic.V(3, 5)
	// Uninitialised read is X.
	ram.Eval([]logic.Value{lo, lo, addr, logic.V(8, 0)}, state, out)
	if !out[0].Equal(logic.AllX(8)) {
		t.Fatalf("fresh read = %v", out[0])
	}
	// Write 42 on a rising edge with we=1.
	ram.Eval([]logic.Value{hi, hi, addr, logic.V(8, 42)}, state, out)
	if got := out[0].MustUint(); got != 42 {
		t.Fatalf("read after write = %v", out[0])
	}
	// No write when we=0.
	ram.Eval([]logic.Value{lo, lo, addr, logic.V(8, 9)}, state, out)
	ram.Eval([]logic.Value{hi, lo, addr, logic.V(8, 9)}, state, out)
	if got := out[0].MustUint(); got != 42 {
		t.Fatalf("read after we=0 edge = %v", out[0])
	}
}

func TestRamInitialContents(t *testing.T) {
	_, ram := buildOne(t, KindRam, []int{1, 1, 2, 8}, []int{8},
		Params{Mem: []uint64{7, 8}})
	state := make([]logic.Value, ram.NumStateVals())
	ram.InitState(state)
	out := make([]logic.Value, 1)
	ram.Eval([]logic.Value{logic.V(1, 0), logic.V(1, 0), logic.V(2, 1), logic.V(8, 0)}, state, out)
	if got := out[0].MustUint(); got != 8 {
		t.Fatalf("initialised ram[1] = %v", out[0])
	}
	ram.Eval([]logic.Value{logic.V(1, 0), logic.V(1, 0), logic.V(2, 3), logic.V(8, 0)}, state, out)
	if !out[0].Equal(logic.AllX(8)) {
		t.Fatalf("ram[3] beyond init = %v", out[0])
	}
}

func TestClockWaveform(t *testing.T) {
	b := NewBuilder("clk")
	n := b.Bit("clk")
	b.Clock("gen", n, 10, 3, 4)
	c := b.MustBuild()
	el := &c.Elems[0]
	// phase 3, high for 4, low for 6.
	wants := map[Time]logic.State{
		0: logic.L, 2: logic.L, 3: logic.H, 6: logic.H, 7: logic.L,
		12: logic.L, 13: logic.H, 16: logic.H, 17: logic.L,
	}
	for tm, want := range wants {
		if got := el.GenValueAt(tm).State(); got != want {
			t.Errorf("clock(%d) = %v, want %v", tm, got, want)
		}
	}
	// Next changes: from 0 -> 3 (rise), from 3 -> 7 (fall), from 7 -> 13.
	steps := map[Time]Time{0: 3, 3: 7, 6: 7, 7: 13, 13: 17}
	for tm, want := range steps {
		got, ok := el.GenNextChange(tm)
		if !ok || got != want {
			t.Errorf("clock next after %d = %d (%v), want %d", tm, got, ok, want)
		}
	}
}

func TestWaveWaveform(t *testing.T) {
	b := NewBuilder("wave")
	n := b.Node("w", 4)
	b.Wave("gen", n, []Time{2, 5, 9},
		[]logic.Value{logic.V(4, 1), logic.V(4, 2), logic.V(4, 3)})
	c := b.MustBuild()
	el := &c.Elems[0]
	if got := el.GenValueAt(0); !got.Equal(logic.AllX(4)) {
		t.Errorf("wave(0) = %v, want X", got)
	}
	wants := map[Time]uint64{2: 1, 4: 1, 5: 2, 8: 2, 9: 3, 100: 3}
	for tm, want := range wants {
		if got := el.GenValueAt(tm).MustUint(); got != want {
			t.Errorf("wave(%d) = %d, want %d", tm, got, want)
		}
	}
	if next, ok := el.GenNextChange(0); !ok || next != 2 {
		t.Errorf("next after 0 = %d %v", next, ok)
	}
	if next, ok := el.GenNextChange(5); !ok || next != 9 {
		t.Errorf("next after 5 = %d %v", next, ok)
	}
	if _, ok := el.GenNextChange(9); ok {
		t.Error("wave must be constant after last time")
	}
}

func TestRandWaveform(t *testing.T) {
	b := NewBuilder("rand")
	n := b.Node("r", 16)
	b.Rand("gen", n, 5, 42)
	c := b.MustBuild()
	el := &c.Elems[0]
	// Stable within a period, reproducible across calls.
	if !el.GenValueAt(0).Equal(el.GenValueAt(4)) {
		t.Error("rand value must be stable within a period")
	}
	if !el.GenValueAt(7).Equal(el.GenValueAt(9)) {
		t.Error("rand value must be stable within second period")
	}
	if next, ok := el.GenNextChange(3); !ok || next != 5 {
		t.Errorf("rand next after 3 = %d %v", next, ok)
	}
	// Different seeds give different sequences (overwhelmingly likely).
	b2 := NewBuilder("rand2")
	n2 := b2.Node("r", 16)
	b2.Rand("gen", n2, 5, 43)
	el2 := &b2.MustBuild().Elems[0]
	same := 0
	for i := Time(0); i < 50; i += 5 {
		if el.GenValueAt(i).Equal(el2.GenValueAt(i)) {
			same++
		}
	}
	if same > 3 {
		t.Errorf("different seeds agree on %d/10 periods", same)
	}
}

func TestQuickClockConsistency(t *testing.T) {
	// Property: the value is constant on [t, NextChange(t)) and differs at
	// NextChange(t).
	f := func(periodRaw, phaseRaw, tRaw uint16) bool {
		period := Time(periodRaw%100) + 2
		phase := Time(phaseRaw % 50)
		p := Params{Period: period, Phase: phase}
		tm := Time(tRaw % 500)
		next := clockNextChange(&p, tm)
		if next <= tm {
			return false
		}
		v := clockValueAt(&p, tm)
		for x := tm; x < next; x++ {
			if !clockValueAt(&p, x).Equal(v) {
				return false
			}
		}
		return !clockValueAt(&p, next).Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBuilderValidation(t *testing.T) {
	t.Run("undriven node", func(t *testing.T) {
		b := NewBuilder("bad")
		a := b.Bit("a")
		y := b.Bit("y")
		b.Gate(KindNot, "g", 1, y, a)
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "no driver") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("double driver", func(t *testing.T) {
		b := NewBuilder("bad")
		y := b.Bit("y")
		b.Const("c1", y, logic.V(1, 0))
		b.Const("c2", y, logic.V(1, 1))
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "driven by both") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("width mismatch", func(t *testing.T) {
		b := NewBuilder("bad")
		a := b.Node("a", 2)
		bn := b.Bit("b")
		y := b.Bit("y")
		b.Const("ca", a, logic.V(2, 0))
		b.Const("cb", bn, logic.V(1, 0))
		b.Gate(KindAnd, "g", 1, y, a, bn)
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "width") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("wrong port count", func(t *testing.T) {
		b := NewBuilder("bad")
		a := b.Bit("a")
		y := b.Bit("y")
		b.Const("ca", a, logic.V(1, 0))
		b.AddElement(KindMux2, "m", 1, []NodeID{y}, []NodeID{a}, Params{})
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "exactly 3 inputs") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("duplicate element name", func(t *testing.T) {
		b := NewBuilder("bad")
		y := b.Bit("y")
		z := b.Bit("z")
		b.Const("c", y, logic.V(1, 0))
		b.Const("c", z, logic.V(1, 0))
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "declared twice") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("negative delay", func(t *testing.T) {
		b := NewBuilder("bad")
		a := b.Bit("a")
		y := b.Bit("y")
		b.Const("ca", a, logic.V(1, 0))
		b.Gate(KindNot, "g", -1, y, a)
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "delay") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("zero delay builds", func(t *testing.T) {
		// Zero delay is representable (the static analyzer, not the
		// builder, polices zero-delay cycles).
		b := NewBuilder("zd")
		a := b.Bit("a")
		y := b.Bit("y")
		b.Const("ca", a, logic.V(1, 0))
		b.Gate(KindNot, "g", 0, y, a)
		c, err := b.Build()
		if err != nil {
			t.Fatalf("zero-delay circuit must build: %v", err)
		}
		if d := c.Elems[c.ElByName["g"]].Delay; d != 0 {
			t.Errorf("delay = %d, want 0", d)
		}
	})
	t.Run("all errors aggregated", func(t *testing.T) {
		b := NewBuilder("bad")
		a := b.Bit("a")
		y := b.Bit("y")
		b.Const("ca", a, logic.V(1, 0))
		b.Gate(KindNot, "g", -1, y, a)  // negative delay
		b.Const("cy", y, logic.V(1, 0)) // y multiply driven
		_ = b.Node("orphan", 1)         // undriven node
		_, err := b.Build()
		if err == nil {
			t.Fatal("want error")
		}
		var agg *BuildErrors
		if !errors.As(err, &agg) {
			t.Fatalf("err %T is not *BuildErrors", err)
		}
		if len(agg.Errs) < 3 {
			t.Errorf("aggregated %d errors, want >= 3: %v", len(agg.Errs), err)
		}
		for _, want := range []string{"delay", "driven by both", "no driver"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error text misses %q: %v", want, err)
			}
		}
		// Element context (name and kind) must survive into each message.
		if !strings.Contains(err.Error(), `"g" (not)`) {
			t.Errorf("error text misses element context: %v", err)
		}
	})
	t.Run("node redeclared width", func(t *testing.T) {
		b := NewBuilder("bad")
		b.Node("a", 2)
		b.Node("a", 3)
		b.Const("ca", b.Node("a", 2), logic.V(2, 0))
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "redeclared") {
			t.Errorf("err = %v", err)
		}
	})
}

func TestCircuitAccessors(t *testing.T) {
	b := NewBuilder("acc")
	a := b.Bit("a")
	y := b.Bit("y")
	b.Clock("clkgen", a, 4, 0, 0)
	b.Gate(KindNot, "inv", 1, y, a)
	c := b.MustBuild()

	if c.Node("a").ID != a {
		t.Error("Node lookup failed")
	}
	if c.FindNode("nope") != nil {
		t.Error("FindNode on missing name must be nil")
	}
	if len(c.Generators()) != 1 {
		t.Errorf("generators = %d", len(c.Generators()))
	}
	if c.NumGates() != 1 {
		t.Errorf("NumGates = %d", c.NumGates())
	}
	s := c.Stats()
	if s.Gates != 1 || s.Generators != 1 || s.Nodes != 2 {
		t.Errorf("stats = %+v", s)
	}
	if !strings.Contains(c.String(), "acc") {
		t.Errorf("String = %q", c.String())
	}
	// Fanout of node a contains the inverter's port 0.
	fo := c.Node("a").Fanout
	if len(fo) != 1 || fo[0].Elem != c.ElByName["inv"] || fo[0].Port != 0 {
		t.Errorf("fanout = %+v", fo)
	}
	defer func() {
		if recover() == nil {
			t.Error("Node on missing name must panic")
		}
	}()
	c.Node("missing")
}

func TestKindNames(t *testing.T) {
	for k := Kind(1); k < kindMax; k++ {
		name := KindName(k)
		if name == "" {
			t.Fatalf("kind %d has no name", k)
		}
		got, ok := KindByName(name)
		if !ok || got != k {
			t.Errorf("KindByName(%q) = %d, %v", name, got, ok)
		}
	}
	if _, ok := KindByName("bogus"); ok {
		t.Error("KindByName(bogus) must fail")
	}
}

// TestBuilderSharedBacking: port lists are cut from one chunk and fan-out
// lists from one array, so each must be clipped — growing one element's or
// node's list may not reach its neighbour's — and fan-out keeps the order
// elements were declared in, whatever Grow was told.
func TestBuilderSharedBacking(t *testing.T) {
	b := NewBuilder("shared")
	b.Grow(1, 1) // an underestimate must only cost regrowth
	clk, a, q, r := b.Bit("clk"), b.Bit("a"), b.Bit("q"), b.Bit("r")
	b.Clock("osc", clk, 4, 0, 0)
	b.Gate(KindNot, "n1", 1, a, clk)
	b.Gate(KindAnd, "g1", 1, q, a, clk)
	b.Gate(KindOr, "g2", 1, r, clk, a)
	if _, ok := b.LookupElement("g1"); !ok {
		t.Error("LookupElement missed a declared element")
	}
	if _, ok := b.LookupElement("g9"); ok {
		t.Error("LookupElement found an undeclared element")
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g1, g2 := &c.Elems[c.ElByName["g1"]], &c.Elems[c.ElByName["g2"]]
	if c.Elems[c.ElByName["osc"]].In != nil {
		t.Error("an element with no inputs should keep a nil list")
	}
	g1.In = append(g1.In, q)
	g1.Out = append(g1.Out, q)
	if g2.In[0] != clk || g2.In[1] != a || g2.Out[0] != r {
		t.Errorf("appending to g1's ports changed g2's: in %v out %v", g2.In, g2.Out)
	}
	want := []PortRef{{Elem: c.ElByName["n1"], Port: 0}, {Elem: g1.ID, Port: 1}, {Elem: g2.ID, Port: 0}}
	if got := c.Nodes[clk].Fanout; len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("clk fan-out %v, want %v", got, want)
	}
	c.Nodes[clk].Fanout = append(c.Nodes[clk].Fanout, PortRef{Elem: 99})
	if got := c.Nodes[a].Fanout; len(got) != 2 || got[0].Elem != g1.ID || got[1].Elem != g2.ID {
		t.Errorf("appending to clk's fan-out changed a's: %v", got)
	}
	if c.Nodes[r].Fanout != nil {
		t.Error("a node nothing reads should keep a nil fan-out")
	}
}

package circuit

import (
	"strings"
	"testing"

	"parsim/internal/logic"
)

func TestExtEval(t *testing.T) {
	_, el := buildOne(t, KindExt, []int{4}, []int{8}, Params{})
	if got := evalOnce(el, logic.V(4, 0b1011))[0]; got.MustUint() != 0b1011 || got.Width() != 8 {
		t.Errorf("ext = %v", got)
	}
	if got := evalOnce(el, logic.AllX(4))[0]; got.Bit(3) != logic.X || got.Bit(4) != logic.L {
		t.Errorf("ext of X = %v", got)
	}
}

func TestConstEval(t *testing.T) {
	b := NewBuilder("c")
	y := b.Node("y", 8)
	b.Const("k", y, logic.V(8, 0xAB))
	c := b.MustBuild()
	el := &c.Elems[0]
	if got := el.GenValueAt(5); got.MustUint() != 0xAB {
		t.Errorf("const gen value = %v", got)
	}
	if _, ok := el.GenNextChange(0); ok {
		t.Error("const must never change")
	}
}

func TestGrayGenerator(t *testing.T) {
	b := NewBuilder("g")
	y := b.Node("y", 8)
	b.AddElement(KindGray, "gg", 1, []NodeID{y}, nil, Params{Period: 10, Seed: 0})
	c := b.MustBuild()
	el := &c.Elems[0]
	// Exactly one bit changes at each period boundary.
	prev := el.GenValueAt(0).MustUint()
	for k := 1; k < 40; k++ {
		cur := el.GenValueAt(Time(k * 10)).MustUint()
		diff := prev ^ cur
		if diff == 0 || diff&(diff-1) != 0 {
			t.Fatalf("step %d: %08b -> %08b changes %b bits", k, prev, cur, diff)
		}
		prev = cur
	}
	// Stable within a period; next change at the boundary.
	if !el.GenValueAt(3).Equal(el.GenValueAt(9)) {
		t.Error("gray value changed within a period")
	}
	if next, ok := el.GenNextChange(3); !ok || next != 10 {
		t.Errorf("next change = %d, %v", next, ok)
	}
	if !el.GenValueAt(-1).Equal(logic.AllX(8)) {
		t.Error("gray before t=0 must be X")
	}
}

func TestTriggerPorts(t *testing.T) {
	cases := map[Kind][]int{
		KindDFF:  {0},
		KindDFFR: {0, 1},
		KindRam:  {0, 2},
	}
	for k, want := range cases {
		got := TriggerPorts(k)
		if len(got) != len(want) {
			t.Fatalf("%s: trig = %v, want %v", KindName(k), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: trig = %v, want %v", KindName(k), got, want)
			}
		}
	}
	for _, k := range []Kind{KindAnd, KindNot, KindLatch, KindMux2, KindAdd} {
		if TriggerPorts(k) != nil {
			t.Errorf("%s must not have trigger ports", KindName(k))
		}
	}
}

func TestTriggerActs(t *testing.T) {
	// An event TriggerActs passes over must leave a flip-flop's output
	// where it was, from every reachable state: a held clock equals the
	// previous clock the state remembers, and while reset is held high the
	// stored value is already Init. Every other kind's events all act.
	vals := []logic.Value{logic.V(1, 0), logic.V(1, 1), logic.AllX(1), logic.AllZ(1)}
	init := logic.V(1, 1)
	for _, k := range []Kind{KindDFF, KindDFFR} {
		el := &Element{Kind: k, Params: Params{Init: init}}
		n := len(TriggerPorts(k)) + 1 // the trigger ports, then d
		for _, port := range TriggerPorts(k) {
			for _, v := range vals {
				if TriggerActs(k, v) != (v.State() != logic.L) {
					t.Errorf("%s: TriggerActs(%v) = %v", KindName(k), v, TriggerActs(k, v))
				}
				if TriggerActs(k, v) {
					continue
				}
				for combo := range 1 << (2 * (n + 2)) { // every held input, the old clock and q
					in := make([]logic.Value, n)
					for i := range in {
						in[i] = vals[combo>>(2*i)&3]
					}
					prevClk, q := vals[combo>>(2*n)&3], vals[combo>>(2*n+2)&3]
					if port != 0 {
						prevClk = in[0] // the clock is held
					}
					if k == KindDFFR && port != 1 && in[1].State() == logic.H {
						q = init // reset held high
					}
					in[port] = v
					state, out := []logic.Value{prevClk, q}, make([]logic.Value, 1)
					el.Eval(in, state, out)
					if !out[0].Equal(q) {
						t.Fatalf("%s: an event to %v on port %d moved the output %v -> %v (inputs %v, old clock %v)",
							KindName(k), v, port, q, out[0], in, prevClk)
					}
				}
			}
		}
	}
	if !TriggerActs(KindRam, logic.V(1, 0)) {
		t.Error("a RAM's trigger events are all taken to act")
	}
}

func TestControllingValue(t *testing.T) {
	cases := map[Kind]logic.State{
		KindAnd: logic.L, KindNand: logic.L,
		KindOr: logic.H, KindNor: logic.H,
	}
	for k, want := range cases {
		got, ok := ControllingValue(k)
		if !ok || got != want {
			t.Errorf("%s: controlling = %v, %v", KindName(k), got, ok)
		}
	}
	for _, k := range []Kind{KindXor, KindBuf, KindNot, KindMux2} {
		if _, ok := ControllingValue(k); ok {
			t.Errorf("%s must have no controlling value", KindName(k))
		}
	}
	if !Controlled(logic.V(4, 0), logic.L) {
		t.Error("all-zero bus is controlled low")
	}
	if Controlled(logic.V(4, 2), logic.L) {
		t.Error("mixed bus is not controlled")
	}
	if !Controlled(logic.V(1, 1), logic.H) {
		t.Error("one bit high is controlled high")
	}
	if Controlled(logic.AllX(2), logic.L) {
		t.Error("X bus is not controlled")
	}
}

func TestTotalCostAndAccessors(t *testing.T) {
	b := NewBuilder("tc")
	a := b.Bit("a")
	y := b.Bit("y")
	if b.Width(a) != 1 {
		t.Error("Width broken")
	}
	if id, ok := b.Lookup("a"); !ok || id != a {
		t.Error("Lookup broken")
	}
	if _, ok := b.Lookup("nope"); ok {
		t.Error("Lookup of missing node")
	}
	b.Const("cg", a, logic.V(1, 0))
	b.Gate(KindNot, "inv", 1, y, a)
	c := b.MustBuild()
	if c.TotalCost() != DefaultCost(KindConst)+DefaultCost(KindNot) {
		t.Errorf("TotalCost = %d", c.TotalCost())
	}
}

// TestKindCheckErrors exercises every kind-specific validation branch.
func TestKindCheckErrors(t *testing.T) {
	v1 := logic.V(1, 0)
	cases := []struct {
		name  string
		build func(b *Builder)
		want  string
	}{
		{"mux2 sel width", func(b *Builder) {
			s := b.Node("s", 2)
			a, c, y := b.Bit("a"), b.Bit("c"), b.Bit("y")
			b.Const("g1", s, logic.V(2, 0))
			b.Const("g2", a, v1)
			b.Const("g3", c, v1)
			b.AddElement(KindMux2, "m", 1, []NodeID{y}, []NodeID{s, a, c}, Params{})
		}, "select must be 1 bit"},
		{"mux2 data width", func(b *Builder) {
			s, a := b.Bit("s"), b.Node("a", 2)
			c, y := b.Bit("c"), b.Bit("y")
			b.Const("g1", s, v1)
			b.Const("g2", a, logic.V(2, 0))
			b.Const("g3", c, v1)
			b.AddElement(KindMux2, "m", 1, []NodeID{y}, []NodeID{s, a, c}, Params{})
		}, "data widths"},
		{"dff clock width", func(b *Builder) {
			clk := b.Node("clk", 2)
			d, q := b.Bit("d"), b.Bit("q")
			b.Const("g1", clk, logic.V(2, 0))
			b.Const("g2", d, v1)
			b.AddElement(KindDFF, "f", 1, []NodeID{q}, []NodeID{clk, d}, Params{})
		}, "clock/enable must be 1 bit"},
		{"dff data width", func(b *Builder) {
			clk, d := b.Bit("clk"), b.Node("d", 2)
			q := b.Bit("q")
			b.Const("g1", clk, v1)
			b.Const("g2", d, logic.V(2, 0))
			b.AddElement(KindDFF, "f", 1, []NodeID{q}, []NodeID{clk, d}, Params{})
		}, "data width"},
		{"dffr init width", func(b *Builder) {
			clk, rst := b.Bit("clk"), b.Bit("rst")
			d, q := b.Node("d", 2), b.Node("q", 2)
			b.Const("g1", clk, v1)
			b.Const("g2", rst, v1)
			b.Const("g3", d, logic.V(2, 0))
			b.AddElement(KindDFFR, "f", 1, []NodeID{q}, []NodeID{clk, rst, d},
				Params{Init: v1})
		}, "reset value width"},
		{"const width", func(b *Builder) {
			y := b.Node("y", 2)
			b.AddElement(KindConst, "k", 1, []NodeID{y}, nil, Params{Init: v1})
		}, "const value width"},
		{"addc carry width", func(b *Builder) {
			a, c2 := b.Node("a", 4), b.Node("c2", 4)
			cin := b.Node("cin", 2)
			sum, cout := b.Node("sum", 4), b.Bit("cout")
			b.Const("g1", a, logic.V(4, 0))
			b.Const("g2", c2, logic.V(4, 0))
			b.Const("g3", cin, logic.V(2, 0))
			b.AddElement(KindAddC, "ad", 1, []NodeID{sum, cout}, []NodeID{a, c2, cin}, Params{})
		}, "carry ports"},
		{"cmp operand widths", func(b *Builder) {
			a, c2, y := b.Node("a", 4), b.Node("c2", 2), b.Bit("y")
			b.Const("g1", a, logic.V(4, 0))
			b.Const("g2", c2, logic.V(2, 0))
			b.AddElement(KindEq, "e", 1, []NodeID{y}, []NodeID{a, c2}, Params{})
		}, "operand widths differ"},
		{"cmp output width", func(b *Builder) {
			a, c2, y := b.Node("a", 4), b.Node("c2", 4), b.Node("y", 2)
			b.Const("g1", a, logic.V(4, 0))
			b.Const("g2", c2, logic.V(4, 0))
			b.AddElement(KindLtU, "e", 1, []NodeID{y}, []NodeID{a, c2}, Params{})
		}, "comparison output"},
		{"slice range", func(b *Builder) {
			a, y := b.Node("a", 4), b.Node("y", 4)
			b.Const("g1", a, logic.V(4, 0))
			b.AddElement(KindSlice, "s", 1, []NodeID{y}, []NodeID{a}, Params{Lo: 2})
		}, "slice"},
		{"ext narrows", func(b *Builder) {
			a, y := b.Node("a", 4), b.Node("y", 2)
			b.Const("g1", a, logic.V(4, 0))
			b.AddElement(KindExt, "x", 1, []NodeID{y}, []NodeID{a}, Params{})
		}, "extension narrows"},
		{"concat widths", func(b *Builder) {
			a, c2, y := b.Node("a", 4), b.Node("c2", 4), b.Node("y", 9)
			b.Const("g1", a, logic.V(4, 0))
			b.Const("g2", c2, logic.V(4, 0))
			b.AddElement(KindConcat, "cc", 1, []NodeID{y}, []NodeID{a, c2}, Params{})
		}, "input widths"},
		{"negative shift", func(b *Builder) {
			a, y := b.Node("a", 4), b.Node("y", 4)
			b.Const("g1", a, logic.V(4, 0))
			b.AddElement(KindShlK, "sh", 1, []NodeID{y}, []NodeID{a}, Params{Shift: -1})
		}, "negative shift"},
		{"reduction output", func(b *Builder) {
			a, y := b.Node("a", 4), b.Node("y", 2)
			b.Const("g1", a, logic.V(4, 0))
			b.AddElement(KindRedAnd, "r", 1, []NodeID{y}, []NodeID{a}, Params{})
		}, "reduction output"},
		{"alu op width", func(b *Builder) {
			op := b.Node("op", 2)
			a, c2, y := b.Node("a", 4), b.Node("c2", 4), b.Node("y", 4)
			b.Const("g1", op, logic.V(2, 0))
			b.Const("g2", a, logic.V(4, 0))
			b.Const("g3", c2, logic.V(4, 0))
			b.AddElement(KindAlu, "u", 1, []NodeID{y}, []NodeID{op, a, c2}, Params{})
		}, "op input must be 3 bits"},
		{"rom empty", func(b *Builder) {
			a, y := b.Node("a", 4), b.Node("y", 8)
			b.Const("g1", a, logic.V(4, 0))
			b.AddElement(KindRom, "r", 1, []NodeID{y}, []NodeID{a}, Params{})
		}, "no contents"},
		{"ram address width", func(b *Builder) {
			clk, we := b.Bit("clk"), b.Bit("we")
			a, d, y := b.Node("a", 24), b.Node("d", 8), b.Node("y", 8)
			b.Const("g1", clk, v1)
			b.Const("g2", we, v1)
			b.Const("g3", a, logic.V(24, 0))
			b.Const("g4", d, logic.V(8, 0))
			b.AddElement(KindRam, "r", 1, []NodeID{y}, []NodeID{clk, we, a, d}, Params{})
		}, "too large"},
		{"clock period", func(b *Builder) {
			y := b.Bit("y")
			b.Clock("c", y, 1, 0, 0)
		}, "period"},
		{"clock duty", func(b *Builder) {
			y := b.Bit("y")
			b.Clock("c", y, 10, 0, 12)
		}, "duty"},
		{"clock phase", func(b *Builder) {
			y := b.Bit("y")
			b.Clock("c", y, 10, -2, 0)
		}, "negative phase"},
		{"wave mismatch", func(b *Builder) {
			y := b.Bit("y")
			b.AddElement(KindWave, "w", 1, []NodeID{y}, nil,
				Params{Times: []Time{0, 1}, Values: []logic.Value{v1}})
		}, "length mismatch"},
		{"wave empty", func(b *Builder) {
			y := b.Bit("y")
			b.AddElement(KindWave, "w", 1, []NodeID{y}, nil, Params{})
		}, "empty waveform"},
		{"wave unsorted", func(b *Builder) {
			y := b.Bit("y")
			b.Wave("w", y, []Time{5, 3}, []logic.Value{v1, v1})
		}, "strictly increasing"},
		{"wave negative time", func(b *Builder) {
			y := b.Bit("y")
			b.Wave("w", y, []Time{-1}, []logic.Value{v1})
		}, "negative time"},
		{"wave value width", func(b *Builder) {
			y := b.Node("y", 2)
			b.Wave("w", y, []Time{0}, []logic.Value{v1})
		}, "width"},
		{"rand period", func(b *Builder) {
			y := b.Bit("y")
			b.Rand("r", y, 0, 1)
		}, "period"},
	}
	for _, tc := range cases {
		b := NewBuilder("bad-" + tc.name)
		tc.build(b)
		_, err := b.Build()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

package seq

import (
	"context"
	"testing"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/logic"
	"parsim/internal/stats"
	"parsim/internal/trace"
)

// simulate runs c on the sequential engine through the registry.
func simulate(t *testing.T, c *circuit.Circuit, cfg engine.Config) *engine.Report {
	t.Helper()
	cfg.Engine = "sequential"
	rep, err := engine.Run(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// inverterChain builds clock -> inv0 -> inv1 -> ... -> inv{n-1}.
func inverterChain(n int, period circuit.Time) *circuit.Circuit {
	b := circuit.NewBuilder("chain")
	clk := b.Bit("clk")
	b.Clock("gen", clk, period, 0, 0)
	prev := clk
	for i := 0; i < n; i++ {
		next := b.Bit(name("n", i))
		b.Gate(circuit.KindNot, name("inv", i), 1, next, prev)
		prev = next
	}
	return b.MustBuild()
}

func name(p string, i int) string {
	return p + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func TestInverterChainTiming(t *testing.T) {
	c := inverterChain(3, 10)
	rec := trace.NewRecorder()
	res := simulate(t, c, engine.Config{Horizon: 40, Probe: rec})

	// clk: rises at 0, falls at 5, rises at 10...
	clkHist := rec.History(c.ByName["clk"])
	wantClk := []trace.Change{
		{Time: 0, Value: logic.V(1, 1)}, {Time: 5, Value: logic.V(1, 0)},
		{Time: 10, Value: logic.V(1, 1)}, {Time: 15, Value: logic.V(1, 0)},
		{Time: 20, Value: logic.V(1, 1)}, {Time: 25, Value: logic.V(1, 0)},
		{Time: 30, Value: logic.V(1, 1)}, {Time: 35, Value: logic.V(1, 0)},
	}
	if len(clkHist) != len(wantClk) {
		t.Fatalf("clk history has %d changes, want %d: %v", len(clkHist), len(wantClk), clkHist)
	}
	for i := range wantClk {
		if clkHist[i] != wantClk[i] {
			t.Errorf("clk change %d = %+v, want %+v", i, clkHist[i], wantClk[i])
		}
	}
	// inv0 output: inverted clock delayed by 1 tick, starting with the X->0
	// transition at t=1.
	h0 := rec.History(c.ByName["n00"])
	if h0[0] != (trace.Change{Time: 1, Value: logic.V(1, 0)}) {
		t.Errorf("n00 first change = %+v", h0[0])
	}
	if h0[1] != (trace.Change{Time: 6, Value: logic.V(1, 1)}) {
		t.Errorf("n00 second change = %+v", h0[1])
	}
	// Third inverter lags the clock by 3 ticks (inverted 3x = inverted).
	h2 := rec.History(c.ByName["n02"])
	if h2[0] != (trace.Change{Time: 3, Value: logic.V(1, 0)}) {
		t.Errorf("n02 first change = %+v", h2[0])
	}
	if res.Final[c.ByName["clk"]].MustUint() != 0 {
		t.Errorf("final clk = %v", res.Final[c.ByName["clk"]])
	}
}

// toggleCounter builds a 1-bit toggle flip-flop: dffr(q) with d = not(q),
// reset pulse at the start.
func toggleCounter() *circuit.Circuit {
	b := circuit.NewBuilder("toggle")
	clk := b.Bit("clk")
	rst := b.Bit("rst")
	q := b.Bit("q")
	d := b.Bit("d")
	b.Clock("clkgen", clk, 10, 5, 0)
	b.Wave("rstgen", rst, []circuit.Time{0, 3},
		[]logic.Value{logic.V(1, 1), logic.V(1, 0)})
	b.AddElement(circuit.KindDFFR, "ff", 1, []circuit.NodeID{q},
		[]circuit.NodeID{clk, rst, d}, circuit.Params{Init: logic.V(1, 0)})
	b.Gate(circuit.KindNot, "inv", 1, d, q)
	return b.MustBuild()
}

func TestToggleCounter(t *testing.T) {
	c := toggleCounter()
	rec := trace.NewRecorder()
	simulate(t, c, engine.Config{Horizon: 100, Probe: rec})
	// Clock rises at 5, 15, 25, ... q toggles 1 tick after each rising edge:
	// q: X -> 0 (reset at t=1) -> 1 (t=6) -> 0 (t=16) -> ...
	h := rec.History(c.ByName["q"])
	if len(h) < 5 {
		t.Fatalf("q history too short: %v", h)
	}
	if h[0] != (trace.Change{Time: 1, Value: logic.V(1, 0)}) {
		t.Fatalf("q first change = %+v, want reset to 0 at t=1", h[0])
	}
	for i := 1; i < len(h); i++ {
		wantT := circuit.Time(6 + 10*(i-1))
		wantV := logic.V(1, uint64(i%2))
		if h[i] != (trace.Change{Time: wantT, Value: wantV}) {
			t.Fatalf("q change %d = %+v, want (%d, %v)", i, h[i], wantT, wantV)
		}
	}
}

// muxRingOscillator builds a loadable feedback loop: y = mux(load, fb, 0);
// fb = not(y) after delay 3. While load=1 y follows the constant 0; after
// load drops the loop oscillates with period 2*(1+3).
func muxRingOscillator() *circuit.Circuit {
	b := circuit.NewBuilder("ring")
	load := b.Bit("load")
	zero := b.Bit("zero")
	y := b.Bit("y")
	fb := b.Bit("fb")
	b.Wave("loadgen", load, []circuit.Time{0, 10},
		[]logic.Value{logic.V(1, 1), logic.V(1, 0)})
	b.Const("zgen", zero, logic.V(1, 0))
	b.AddElement(circuit.KindMux2, "mux", 1, []circuit.NodeID{y},
		[]circuit.NodeID{load, fb, zero}, circuit.Params{})
	b.Gate(circuit.KindNot, "inv", 3, fb, y)
	return b.MustBuild()
}

func TestFeedbackOscillator(t *testing.T) {
	c := muxRingOscillator()
	rec := trace.NewRecorder()
	simulate(t, c, engine.Config{Horizon: 60, Probe: rec})
	h := rec.History(c.ByName["y"])
	// y settles to 0 while load=1 (mux sel=1 selects const zero input),
	// then oscillates after load drops at t=10.
	if len(h) < 6 {
		t.Fatalf("y history too short: %v", h)
	}
	// After the oscillation starts, consecutive changes are 4 ticks apart
	// (1 mux + 3 inverter).
	var osc []trace.Change
	for _, ch := range h {
		if ch.Time >= 12 {
			osc = append(osc, ch)
		}
	}
	if len(osc) < 4 {
		t.Fatalf("no sustained oscillation: %v", h)
	}
	for i := 1; i < len(osc); i++ {
		if dt := osc[i].Time - osc[i-1].Time; dt != 4 {
			t.Errorf("oscillation interval %d at change %d, want 4 (%v)", dt, i, osc)
			break
		}
		if osc[i].Value.Equal(osc[i-1].Value) {
			t.Errorf("oscillation repeated value at change %d", i)
		}
	}
}

func TestAdderDatapath(t *testing.T) {
	b := circuit.NewBuilder("addpath")
	a := b.Node("a", 8)
	bb := b.Node("b", 8)
	sum := b.Node("sum", 8)
	b.Rand("agen", a, 10, 1)
	b.Rand("bgen", b.Node("b", 8), 10, 2)
	b.AddElement(circuit.KindAdd, "adder", 2, []circuit.NodeID{sum},
		[]circuit.NodeID{a, bb}, circuit.Params{})
	c := b.MustBuild()
	rec := trace.NewRecorder()
	simulate(t, c, engine.Config{Horizon: 100, Probe: rec})

	agen := &c.Elems[c.ElByName["agen"]]
	bgen := &c.Elems[c.ElByName["bgen"]]
	// In the middle of each stimulus period the sum must equal a+b mod 256.
	for _, tm := range []circuit.Time{5, 15, 25, 55, 95} {
		av := agen.GenValueAt(tm).MustUint()
		bv := bgen.GenValueAt(tm).MustUint()
		got := rec.ValueAt(c, c.ByName["sum"], tm)
		if !got.IsKnown() {
			t.Fatalf("sum unknown at t=%d", tm)
		}
		if want := (av + bv) & 0xff; got.MustUint() != want {
			t.Errorf("sum(%d) = %d, want %d", tm, got.MustUint(), want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	c := inverterChain(8, 6)
	r1 := simulate(t, c, engine.Config{Horizon: 200})
	r2 := simulate(t, c, engine.Config{Horizon: 200})
	if r1.Stats.NodeUpdates != r2.Stats.NodeUpdates || r1.Stats.Evals != r2.Stats.Evals ||
		r1.Stats.TimeSteps != r2.Stats.TimeSteps {
		t.Errorf("non-deterministic stats: %+v vs %+v", r1.Stats, r2.Stats)
	}
	for i := range r1.Final {
		if !r1.Final[i].Equal(r2.Final[i]) {
			t.Errorf("final value of node %d differs", i)
		}
	}
}

func TestHorizonCutoff(t *testing.T) {
	c := inverterChain(2, 10)
	rec := trace.NewRecorder()
	simulate(t, c, engine.Config{Horizon: 7, Probe: rec})
	for _, n := range rec.Nodes() {
		for _, ch := range rec.History(n) {
			if ch.Time >= 7 {
				t.Errorf("change at t=%d beyond horizon", ch.Time)
			}
		}
	}
}

func TestAvailabilityHistogram(t *testing.T) {
	c := inverterChain(4, 8)
	res := simulate(t, c, engine.Config{Horizon: 100, CollectAvail: true})
	if res.Stats.Avail.N() != res.Stats.TimeSteps {
		t.Errorf("avail samples %d != steps %d", res.Stats.Avail.N(), res.Stats.TimeSteps)
	}
	// A single chain never has more than a few elements active at once.
	if max := res.Stats.Avail.Max(); max > 4 {
		t.Errorf("max avail %d on a 4-element chain", max)
	}
}

func TestStatsPlausible(t *testing.T) {
	c := inverterChain(4, 8)
	res := simulate(t, c, engine.Config{Horizon: 100})
	r := &res.Stats
	if r.NodeUpdates == 0 || r.Evals == 0 || r.TimeSteps == 0 {
		t.Fatalf("empty stats: %+v", r)
	}
	if r.Workers != 1 || r.Algorithm == "" {
		t.Errorf("metadata: %+v", r)
	}
	if r.Utilization() != 1.0 {
		t.Errorf("uniprocessor utilisation = %v, want 1", r.Utilization())
	}
	var _ stats.Run = *r
}

func TestNoActivityCircuit(t *testing.T) {
	// A constant driving an inverter settles after initialisation and then
	// the simulator must stop on its own, well before the horizon.
	b := circuit.NewBuilder("quiet")
	cn := b.Bit("c")
	y := b.Bit("y")
	b.Const("cgen", cn, logic.V(1, 1))
	b.Gate(circuit.KindNot, "inv", 1, y, cn)
	c := b.MustBuild()
	res := simulate(t, c, engine.Config{Horizon: 1 << 40})
	if res.Stats.TimeSteps > 3 {
		t.Errorf("quiet circuit took %d steps", res.Stats.TimeSteps)
	}
	if res.Final[y].MustUint() != 0 {
		t.Errorf("final y = %v", res.Final[y])
	}
}

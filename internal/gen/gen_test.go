package gen

import (
	"context"
	"testing"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	_ "parsim/internal/seq"
	"parsim/internal/trace"
)

// simulate runs c on the named engine through the registry.
func simulate(t *testing.T, name string, c *circuit.Circuit, cfg engine.Config) *engine.Report {
	t.Helper()
	cfg.Engine = name
	rep, err := engine.Run(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestInverterArraySize(t *testing.T) {
	c := InverterArray(DefaultInverterArray())
	s := c.Stats()
	if s.Gates != 32*16 {
		t.Errorf("gates = %d, want 512", s.Gates)
	}
	if s.Generators != 32 {
		t.Errorf("generators = %d, want 32", s.Generators)
	}
}

func TestInverterArrayEventRate(t *testing.T) {
	// With all 32 rows toggling every tick, the steady state has ~512 node
	// updates per tick; with 4 active rows, ~64.
	for _, tc := range []struct {
		active int
		want   float64
	}{
		{32, 512}, {16, 256}, {4, 64},
	} {
		cfg := DefaultInverterArray()
		cfg.ActiveRows = tc.active
		c := InverterArray(cfg)
		const warm, horizon = 64, 256
		resAll := simulate(t, "sequential", c, engine.Config{Horizon: horizon})
		resWarm := simulate(t, "sequential", c, engine.Config{Horizon: warm})
		perTick := float64(resAll.Stats.NodeUpdates-resWarm.Stats.NodeUpdates) / float64(horizon-warm)
		// Each active row contributes cols updates per tick plus its input.
		want := tc.want + float64(tc.active)
		if perTick < want*0.9 || perTick > want*1.1 {
			t.Errorf("active=%d: %.1f updates/tick, want ~%.0f", tc.active, perTick, want)
		}
	}
}

func TestFeedbackChainOscillates(t *testing.T) {
	const n = 9
	c := FeedbackChain(n)
	rec := trace.NewRecorder()
	simulate(t, "sequential", c, engine.Config{Horizon: 500, Probe: rec})
	h := rec.History(c.ByName["y"])
	if len(h) < 10 {
		t.Fatalf("ring did not oscillate: %d changes", len(h))
	}
	// Once running, the ring period is 2*(n+1).
	tail := h[len(h)-4:]
	for i := 1; i < len(tail); i++ {
		if dt := tail[i].Time - tail[i-1].Time; dt != n+1 {
			t.Errorf("ring interval %d, want %d", dt, n+1)
		}
	}
}

// settledProduct returns the circuit's product output midway through each
// stimulus period, when the combinational logic has settled.
func checkMultiplier(t *testing.T, c *circuit.Circuit, cfg MultiplierConfig, periods int) {
	t.Helper()
	rec := trace.NewRecorderFor(c.ByName["p"])
	horizon := cfg.InPeriod * circuit.Time(periods)
	simulate(t, "sequential", c, engine.Config{Horizon: horizon, Probe: rec})
	agen := &c.Elems[c.ElByName["agen"]]
	bgen := &c.Elems[c.ElByName["bgen"]]
	for k := 0; k < periods; k++ {
		sample := circuit.Time(k)*cfg.InPeriod + cfg.InPeriod - 1
		a := agen.GenValueAt(sample).MustUint()
		b := bgen.GenValueAt(sample).MustUint()
		got := rec.ValueAt(c, c.ByName["p"], sample)
		if !got.IsKnown() {
			t.Fatalf("%s: product unknown at t=%d (a=%d b=%d): %v", c.Name, sample, a, b, got)
		}
		want := (a * b) & (1<<uint(2*cfg.N) - 1)
		if got.MustUint() != want {
			t.Errorf("%s: %d * %d = %d, want %d", c.Name, a, b, got.MustUint(), want)
		}
	}
}

func TestGateMultiplierComputes(t *testing.T) {
	cfg := DefaultMultiplier()
	cfg.N = 8
	cfg.InPeriod = 128
	checkMultiplier(t, GateMultiplier(cfg), cfg, 6)
}

func TestGateMultiplier16(t *testing.T) {
	if testing.Short() {
		t.Skip("16-bit array multiplier is slow in -short mode")
	}
	cfg := DefaultMultiplier()
	checkMultiplier(t, GateMultiplier(cfg), cfg, 4)
}

func TestFuncMultiplierComputes(t *testing.T) {
	cfg := DefaultMultiplier()
	checkMultiplier(t, FuncMultiplier(cfg), cfg, 8)
}

func TestMultiplierSizesMatchPaper(t *testing.T) {
	gate := GateMultiplier(DefaultMultiplier())
	fn := FuncMultiplier(DefaultMultiplier())
	gs, fs := gate.Stats(), fn.Stats()
	// Paper: "about 5000 elements at the gate level and about 100 elements
	// at the RTL level". Our shared-NAND decomposition lands lower at the
	// gate level; assert the order of magnitude and the ~100 functional one.
	if gs.Elements < 2000 || gs.Elements > 6000 {
		t.Errorf("gate multiplier has %d elements, want thousands", gs.Elements)
	}
	if fs.Elements < 80 || fs.Elements > 220 {
		t.Errorf("functional multiplier has %d elements, want ~100-200", fs.Elements)
	}
	t.Logf("gate-level: %v", gate)
	t.Logf("functional: %v", fn)
}

func TestCPUAgainstISS(t *testing.T) {
	cfg := DefaultCPU()
	c := CPU(cfg)
	t.Logf("cpu: %v", c)

	const cycles = 150
	res := simulate(t, "sequential", c, engine.Config{Horizon: CPUHorizon(cfg, cycles)})

	iss := NewISS(cfg.Program)
	iss.Run(cycles)

	for r := 0; r < 16; r++ {
		got, ok := CPURegValue(c, res.Final, r)
		if !ok {
			t.Errorf("r%d has unknown bits", r)
			continue
		}
		if got != iss.Reg[r] {
			t.Errorf("r%d = %d, ISS has %d", r, got, iss.Reg[r])
		}
	}
	// Program-level expectations.
	if iss.Reg[1] != 55 {
		t.Errorf("ISS r1 = %d, want 55 (sum 1..10)", iss.Reg[1])
	}
	if iss.Reg[2] != 89 {
		t.Errorf("ISS r2 = %d, want 89 (fib 11)", iss.Reg[2])
	}
	if iss.Reg[5] != 55 {
		t.Errorf("ISS r5 = %d, want 55 (memory round trip)", iss.Reg[5])
	}
}

func TestCPUSize(t *testing.T) {
	c := CPU(DefaultCPU())
	s := c.Stats()
	// Paper: "about 3000 non-memory gates"; our shared decomposition lands
	// in the same ballpark.
	nonMem := s.Elements - s.Generators - 2 // irom + dram
	if nonMem < 1200 || nonMem > 4000 {
		t.Errorf("cpu has %d non-memory elements, want thousands", nonMem)
	}
}

func TestCPUBranchAndDelaySlot(t *testing.T) {
	// BNEZ taken skips the post-slot instruction; the slot itself executes.
	prog := []uint16{
		LI(1, 1),      // 0
		BNEZ(1, 1),    // 1: taken, target = 1+2+1 = 4
		LI(2, 7),      // 2: delay slot, executes
		LI(3, 9),      // 3: skipped
		LI(4, 5),      // 4: branch target
		JMP(5), NOP(), // spin
	}
	iss := NewISS(prog)
	iss.Run(20)
	if iss.Reg[2] != 7 {
		t.Errorf("delay slot did not execute: r2 = %d", iss.Reg[2])
	}
	if iss.Reg[3] != 0 {
		t.Errorf("branch shadow executed: r3 = %d", iss.Reg[3])
	}
	if iss.Reg[4] != 5 {
		t.Errorf("branch target missed: r4 = %d", iss.Reg[4])
	}

	cfg := CPUConfig{Program: prog, ClockPeriod: 96}
	c := CPU(cfg)
	res := simulate(t, "sequential", c, engine.Config{Horizon: CPUHorizon(cfg, 20)})
	for r := 1; r <= 4; r++ {
		got, ok := CPURegValue(c, res.Final, r)
		if !ok || got != iss.Reg[r] {
			t.Errorf("gate-level r%d = %d (ok=%v), ISS %d", r, got, ok, iss.Reg[r])
		}
	}
}

func TestRandomCircuitsBuild(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		c := RandomCircuit(seed, 60)
		res := simulate(t, "sequential", c, engine.Config{Horizon: 200})
		if res.Stats.Evals == 0 {
			t.Errorf("seed %d: no activity", seed)
		}
	}
}

func TestGeneratorPanics(t *testing.T) {
	cases := []func(){
		func() { InverterArray(InverterArrayConfig{Rows: 0, Cols: 4}) },
		func() { InverterArray(InverterArrayConfig{Rows: 4, Cols: 4, ActiveRows: 9}) },
		func() { FeedbackChain(0) },
		func() { RandomCircuit(1, 2) },
		func() { CPU(CPUConfig{ClockPeriod: 10}) },
		func() { BNEZ(1, 9) },
		func() { ADDI(1, 1, 99) },
		func() { LW(99, 0) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

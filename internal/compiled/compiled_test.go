package compiled

import (
	"context"
	"testing"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/gen"
	"parsim/internal/partition"
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

// crossCheck compares compiled-mode output against the sequential oracle on
// a unit-delay circuit.
func crossCheck(t *testing.T, c *circuit.Circuit, horizon circuit.Time, cfg engine.Config) *engine.Report {
	t.Helper()
	if !c.UnitDelay() {
		t.Fatalf("%s is not unit-delay; cross-check invalid", c.Name)
	}
	ref := trace.NewRecorder()
	seqRes := simulate(t, "sequential", c, engine.Config{Horizon: horizon, Probe: ref})

	got := trace.NewRecorder()
	cfg.Horizon = horizon
	cfg.Probe = got
	res := simulate(t, "compiled", c, cfg)

	if d := trace.Diff(c, ref, got); d != "" {
		t.Fatalf("%s (P=%d): history mismatch: %s", c.Name, cfg.Workers, d)
	}
	if res.Stats.NodeUpdates != seqRes.Stats.NodeUpdates {
		t.Errorf("node updates %d != sequential %d", res.Stats.NodeUpdates, seqRes.Stats.NodeUpdates)
	}
	for i := range res.Final {
		if !res.Final[i].Equal(seqRes.Final[i]) {
			t.Errorf("final value of node %s differs: %v vs %v",
				c.Nodes[i].Name, res.Final[i], seqRes.Final[i])
		}
	}
	return res
}

func TestMatchesSequentialOnArray(t *testing.T) {
	c := gen.InverterArray(gen.InverterArrayConfig{Rows: 8, Cols: 8, ActiveRows: 5, TogglePeriod: 3})
	for _, p := range []int{1, 2, 4} {
		crossCheck(t, c, 200, engine.Config{Workers: p})
	}
}

func TestMatchesSequentialOnGateMultiplier(t *testing.T) {
	cfg := gen.DefaultMultiplier()
	cfg.N = 8
	cfg.InPeriod = 128
	c := gen.GateMultiplier(cfg)
	crossCheck(t, c, 384, engine.Config{Workers: 4})
}

func TestMatchesSequentialOnRandomUnitCircuits(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		c := gen.RandomUnitCircuit(seed, 70)
		crossCheck(t, c, 200, engine.Config{Workers: 3})
	}
}

func TestAllPartitionStrategies(t *testing.T) {
	c := gen.InverterArray(gen.InverterArrayConfig{Rows: 6, Cols: 6, ActiveRows: 6, TogglePeriod: 1})
	for _, st := range []partition.Strategy{partition.RoundRobin, partition.Blocks, partition.CostLPT} {
		crossCheck(t, c, 150, engine.Config{Workers: 4, Strategy: st})
	}
}

func TestEvalsCountEveryElementEveryStep(t *testing.T) {
	c := gen.InverterArray(gen.InverterArrayConfig{Rows: 4, Cols: 4, ActiveRows: 1, TogglePeriod: 8})
	const horizon = 100
	res := simulate(t, "compiled", c, engine.Config{Workers: 2, Horizon: horizon})
	wantEvals := int64(horizon-1) * int64(c.NumGates())
	if res.Stats.Evals != wantEvals {
		t.Errorf("evals = %d, want %d (compiled mode evaluates everything)", res.Stats.Evals, wantEvals)
	}
	// Activity is low, so updates must be far below evals: the wasted work
	// the paper warns about.
	if res.Stats.NodeUpdates*4 > res.Stats.Evals {
		t.Errorf("updates %d not small vs evals %d", res.Stats.NodeUpdates, res.Stats.Evals)
	}
}

func TestUnitDelayDetector(t *testing.T) {
	if !gen.InverterArray(gen.DefaultInverterArray()).UnitDelay() {
		t.Error("inverter array must be unit-delay")
	}
	if gen.CPU(gen.DefaultCPU()).UnitDelay() {
		t.Error("CPU has ROM/RAM delay 2; not unit-delay")
	}
	b := circuit.NewBuilder("zero-delay")
	clk, mid, a := b.Bit("clk"), b.Bit("mid"), b.Bit("a")
	b.Clock("osc", clk, 4, 0, 0)
	b.Gate(circuit.KindNot, "inv0", 0, mid, clk)
	b.Gate(circuit.KindNot, "inv1", 1, a, mid)
	if b.MustBuild().UnitDelay() {
		t.Error("a delay-0 element is not unit-delay")
	}
}

func TestBadWorkerCountError(t *testing.T) {
	res, err := engine.Run(context.Background(), gen.FeedbackChain(3), engine.Config{Engine: "compiled", Workers: -1, Horizon: 10})
	if err == nil {
		t.Fatal("Workers=-1 did not return an error")
	}
	if res != nil {
		t.Fatal("bad config must not produce a result")
	}
}

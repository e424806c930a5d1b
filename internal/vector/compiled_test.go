package vector

import (
	"context"
	"testing"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/gen"
	"parsim/internal/trace"
)

// crossCheck compares a compiled-mode run against the sequential reference
// on a unit-delay circuit: every node's history, the update count and the
// final values.
func crossCheck(t *testing.T, c *circuit.Circuit, horizon circuit.Time, cfg engine.Config) *engine.Report {
	t.Helper()
	if !c.UnitDelay() {
		t.Fatalf("%s is not unit-delay; cross-check invalid", c.Name)
	}
	ref := trace.NewRecorder()
	seqRes := mustRun(t, "sequential", c, engine.Config{Horizon: horizon, Probe: ref})

	got := trace.NewRecorder()
	cfg.Horizon = horizon
	cfg.Probe = got
	res := mustRun(t, "compiled", c, cfg)

	if d := trace.Diff(c, ref, got); d != "" {
		t.Fatalf("%s (P=%d): history mismatch: %s", c.Name, cfg.Workers, d)
	}
	if res.Stats.NodeUpdates != seqRes.Stats.NodeUpdates {
		t.Errorf("node updates %d != sequential %d", res.Stats.NodeUpdates, seqRes.Stats.NodeUpdates)
	}
	if !sameValues(res.Final, seqRes.Final) {
		t.Errorf("%s (P=%d): final values differ from sequential", c.Name, cfg.Workers)
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

func TestEvalsCountEveryElementEveryStep(t *testing.T) {
	c := gen.InverterArray(gen.InverterArrayConfig{Rows: 4, Cols: 4, ActiveRows: 1, TogglePeriod: 8})
	const horizon = 100
	res := mustRun(t, "compiled", c, engine.Config{Workers: 2, Horizon: horizon})
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

func TestBadWorkerCountError(t *testing.T) {
	res, err := engine.Run(context.Background(), gen.FeedbackChain(3), engine.Config{Engine: "compiled", Workers: -1, Horizon: 10})
	if err == nil {
		t.Fatal("Workers=-1 did not return an error")
	}
	if res != nil {
		t.Fatal("bad config must not produce a result")
	}
}

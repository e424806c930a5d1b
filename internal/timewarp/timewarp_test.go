package timewarp

import (
	"context"
	"testing"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/gen"
	_ "parsim/internal/seq"
	"parsim/internal/trace"
)

func init() { twDebug = true }

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

// crossCheck compares committed Time Warp output against the sequential
// oracle, event for event.
func crossCheck(t *testing.T, c *circuit.Circuit, horizon circuit.Time, cfg engine.Config) *engine.Report {
	t.Helper()
	ref := trace.NewRecorder()
	seqRes := simulate(t, "sequential", c, engine.Config{Horizon: horizon, Probe: ref})

	got := trace.NewRecorder()
	cfg.Horizon = horizon
	cfg.Probe = got
	res := simulate(t, "time-warp", c, cfg)

	if d := trace.Diff(c, ref, got); d != "" {
		t.Fatalf("%s (P=%d): history mismatch: %s", c.Name, cfg.Workers, d)
	}
	if res.Stats.NodeUpdates != seqRes.Stats.NodeUpdates {
		t.Errorf("committed updates %d != sequential %d", res.Stats.NodeUpdates, seqRes.Stats.NodeUpdates)
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
	c := gen.InverterArray(gen.InverterArrayConfig{Rows: 8, Cols: 8, ActiveRows: 6, TogglePeriod: 2})
	for _, p := range []int{1, 2, 3, 4} {
		crossCheck(t, c, 300, engine.Config{Workers: p})
	}
}

func TestMatchesSequentialOnFuncMultiplier(t *testing.T) {
	cfg := gen.DefaultMultiplier()
	cfg.InPeriod = 64
	c := gen.FuncMultiplier(cfg)
	for _, p := range []int{1, 3} {
		crossCheck(t, c, 512, engine.Config{Workers: p})
	}
}

func TestMatchesSequentialOnGateMultiplier(t *testing.T) {
	cfg := gen.DefaultMultiplier()
	cfg.N = 8
	cfg.InPeriod = 128
	c := gen.GateMultiplier(cfg)
	crossCheck(t, c, 512, engine.Config{Workers: 4})
}

func TestMatchesSequentialOnCPU(t *testing.T) {
	cfg := gen.DefaultCPU()
	c := gen.CPU(cfg)
	crossCheck(t, c, gen.CPUHorizon(cfg, 20), engine.Config{Workers: 3})
}

func TestMatchesSequentialOnFeedback(t *testing.T) {
	for _, p := range []int{1, 3} {
		crossCheck(t, gen.FeedbackChain(13), 600, engine.Config{Workers: p})
	}
}

func TestMatchesSequentialOnRandomCircuits(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		c := gen.RandomCircuit(seed, 80)
		crossCheck(t, c, 200, engine.Config{Workers: 3})
	}
}

// setWindow sets the GVT window of the runs that follow, until t ends.
func setWindow(t *testing.T, steps int) {
	t.Cleanup(func() { stepsPerRound = defaultStepsPerRound })
	stepsPerRound = steps
}

func TestSmallWindowForcesRollbacks(t *testing.T) {
	// A small optimism window with several workers on a deep circuit makes
	// cross-partition stragglers likely; the simulator must both roll back
	// and still produce exact results.
	cfg := gen.DefaultMultiplier()
	cfg.N = 8
	cfg.InPeriod = 64
	c := gen.GateMultiplier(cfg)
	setWindow(t, 64)
	res := crossCheck(t, c, 512, engine.Config{Workers: 4})
	tot := res.Stats.Totals()
	t.Logf("rollbacks=%d cancelled=%d rolledBack=%d peakLog=%d rounds=%d",
		tot.Rollbacks, tot.Cancelled, tot.RolledBack, res.PeakLog, res.GVTRounds)
	if tot.Rollbacks == 0 {
		t.Log("no rollbacks occurred; optimism never misfired on this host")
	}
}

func TestStateStorageGrowsWithOptimism(t *testing.T) {
	// The paper's criticism: optimistic execution must keep state to roll
	// back to. More optimism per round -> more saved state.
	c := gen.InverterArray(gen.InverterArrayConfig{Rows: 16, Cols: 16, ActiveRows: 16, TogglePeriod: 1})
	setWindow(t, 64)
	small := simulate(t, "time-warp", c, engine.Config{Workers: 2, Horizon: 160})
	setWindow(t, 4096)
	big := simulate(t, "time-warp", c, engine.Config{Workers: 2, Horizon: 160})
	if big.PeakLog <= small.PeakLog {
		t.Errorf("peak saved state did not grow with optimism: %d vs %d",
			big.PeakLog, small.PeakLog)
	}
	if small.GVTRounds <= big.GVTRounds {
		t.Errorf("smaller windows should need more GVT rounds: %d vs %d",
			small.GVTRounds, big.GVTRounds)
	}
}

func TestBadWorkerCountError(t *testing.T) {
	res, err := engine.Run(context.Background(), gen.FeedbackChain(3), engine.Config{Engine: "time-warp", Workers: -1, Horizon: 10})
	if err == nil {
		t.Fatal("Workers=-1 did not return an error")
	}
	if res != nil {
		t.Fatal("bad config must not produce a result")
	}
}

func TestZeroHorizon(t *testing.T) {
	res := simulate(t, "time-warp", gen.FeedbackChain(3), engine.Config{Workers: 2, Horizon: 0})
	if res.Stats.NodeUpdates != 0 {
		t.Errorf("updates at zero horizon: %d", res.Stats.NodeUpdates)
	}
}

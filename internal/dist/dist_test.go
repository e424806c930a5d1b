package dist

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

// crossCheck compares the distributed simulator against the sequential
// oracle, event for event.
func crossCheck(t *testing.T, c *circuit.Circuit, horizon circuit.Time, cfg engine.Config) *engine.Report {
	t.Helper()
	ref := trace.NewRecorder()
	seqRes := simulate(t, "sequential", c, engine.Config{Horizon: horizon, Probe: ref})

	got := trace.NewRecorder()
	cfg.Horizon = horizon
	cfg.Probe = got
	res := simulate(t, "distributed-async", c, cfg)

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
	c := gen.InverterArray(gen.InverterArrayConfig{Rows: 8, Cols: 8, ActiveRows: 6, TogglePeriod: 2})
	for _, p := range []int{1, 2, 3, 5, 8} {
		crossCheck(t, c, 300, engine.Config{Workers: p})
	}
}

func TestMatchesSequentialOnFuncMultiplier(t *testing.T) {
	cfg := gen.DefaultMultiplier()
	cfg.InPeriod = 64
	c := gen.FuncMultiplier(cfg)
	for _, p := range []int{1, 3, 4} {
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
	crossCheck(t, c, gen.CPUHorizon(cfg, 25), engine.Config{Workers: 4})
}

func TestMatchesSequentialOnFeedback(t *testing.T) {
	for _, p := range []int{1, 3} {
		crossCheck(t, gen.FeedbackChain(13), 600, engine.Config{Workers: p})
	}
}

func TestMatchesSequentialOnRandomCircuits(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		c := gen.RandomCircuit(seed, 80)
		crossCheck(t, c, 250, engine.Config{Workers: 3})
	}
}

func TestMessagesOnlyWithMultipleWorkers(t *testing.T) {
	c := gen.InverterArray(gen.InverterArrayConfig{Rows: 4, Cols: 4, ActiveRows: 4, TogglePeriod: 1})
	solo := simulate(t, "distributed-async", c, engine.Config{Workers: 1, Horizon: 100})
	if m := solo.Stats.Totals().Messages; m != 0 {
		t.Errorf("single worker sent %d messages", m)
	}
	multi := simulate(t, "distributed-async", c, engine.Config{Workers: 4, Horizon: 100})
	if multi.Stats.Totals().Messages == 0 {
		t.Error("four workers exchanged no messages")
	}
}

func TestReclamationBoundsMemory(t *testing.T) {
	// A long run over a small circuit: replicas must stay compact.
	c := gen.InverterArray(gen.InverterArrayConfig{Rows: 2, Cols: 4, ActiveRows: 2, TogglePeriod: 1})
	res := simulate(t, "distributed-async", c, engine.Config{Workers: 2, Horizon: 100000})
	if res.Stats.NodeUpdates < 100000 {
		t.Fatalf("not enough activity: %d", res.Stats.NodeUpdates)
	}
	// Indirect check: the run completing in reasonable time with ~1M events
	// across 8 nodes exercises the compaction path (reclaimThreshold=256).
}

func TestDeterministicHistories(t *testing.T) {
	c := gen.RandomCircuit(11, 100)
	r1 := trace.NewRecorder()
	simulate(t, "distributed-async", c, engine.Config{Workers: 4, Horizon: 300, Probe: r1})
	r2 := trace.NewRecorder()
	simulate(t, "distributed-async", c, engine.Config{Workers: 4, Horizon: 300, Probe: r2})
	if d := trace.Diff(c, r1, r2); d != "" {
		t.Fatalf("two runs differ: %s", d)
	}
}

func TestPartitionStrategies(t *testing.T) {
	cfg := gen.DefaultMultiplier()
	cfg.InPeriod = 64
	c := gen.FuncMultiplier(cfg)
	for _, s := range []partition.Strategy{partition.RoundRobin, partition.Blocks, partition.CostLPT} {
		crossCheck(t, c, 256, engine.Config{Workers: 3, Strategy: s})
	}
}

func TestBadWorkerCountError(t *testing.T) {
	res, err := engine.Run(context.Background(), gen.FeedbackChain(3), engine.Config{Engine: "distributed-async", Workers: -1, Horizon: 10})
	if err == nil {
		t.Fatal("Workers=-1 did not return an error")
	}
	if res != nil {
		t.Fatal("bad config must not produce a result")
	}
}

func TestZeroHorizon(t *testing.T) {
	res := simulate(t, "distributed-async", gen.FeedbackChain(3), engine.Config{Workers: 2, Horizon: 0})
	if res.Stats.NodeUpdates != 0 {
		t.Errorf("updates at zero horizon: %d", res.Stats.NodeUpdates)
	}
}

package core

import (
	"context"
	"errors"
	"testing"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/gen"
	"parsim/internal/guard"
	"parsim/internal/logic"
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

// crossCheck runs the circuit under the sequential oracle and the
// asynchronous simulator, requiring identical node histories — the
// strongest available evidence that chaotic evaluation order preserves
// simulation semantics.
func crossCheck(t *testing.T, c *circuit.Circuit, horizon circuit.Time, cfg engine.Config) *engine.Report {
	t.Helper()
	ref := trace.NewRecorder()
	seqRes := simulate(t, "sequential", c, engine.Config{Horizon: horizon, Probe: ref})

	got := trace.NewRecorder()
	cfg.Horizon = horizon
	cfg.Probe = got
	res := simulate(t, "asynchronous", c, cfg)

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
	for _, p := range []int{1, 2, 3, 4, 8} {
		crossCheck(t, c, 300, engine.Config{Workers: p})
	}
}

func TestMatchesSequentialOnFuncMultiplier(t *testing.T) {
	cfg := gen.DefaultMultiplier()
	cfg.InPeriod = 64
	c := gen.FuncMultiplier(cfg)
	for _, p := range []int{1, 2, 4} {
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
	res := crossCheck(t, c, gen.CPUHorizon(cfg, 40), engine.Config{Workers: 4})
	if res.Stats.Evals == 0 {
		t.Error("no evaluations")
	}
}

func TestMatchesSequentialOnFeedbackChain(t *testing.T) {
	// The worst case: a long feedback loop forces one-event-at-a-time
	// progress around the ring, yet results must stay exact.
	for _, p := range []int{1, 4} {
		c := gen.FeedbackChain(13)
		crossCheck(t, c, 600, engine.Config{Workers: p})
	}
}

func TestMatchesSequentialOnRandomCircuits(t *testing.T) {
	// The differential corpus: every scheduling mode at every worker count
	// must reproduce the sequential oracle's per-node histories and finals
	// on circuits with feedback of arbitrary length. The one legal refusal
	// is the conservative family's typed stall report on a circuit whose
	// feedback loops never receive events (seeds 78 and 115 here).
	modes := []struct {
		name, engine string
		cfg          engine.Config
	}{
		{"default", "asynchronous", engine.Config{}},
		{"gate-lookahead", "asynchronous", engine.Config{GateLookahead: true}},
		{"no-lookahead", "asynchronous", engine.Config{NoLookahead: true}},
		{"chandy-misra", "chandy-misra", engine.Config{}},
	}
	seeds := int64(200)
	if testing.Short() {
		seeds = 40
	}
	stalled := map[int64]bool{}
	defer func() {
		if len(stalled) > int(seeds)/20 {
			t.Errorf("%d of %d circuits refused as stalled", len(stalled), seeds)
		}
	}()
	for seed := int64(0); seed < seeds; seed++ {
		c := gen.RandomCircuit(seed, 80)
		ref := trace.NewRecorder()
		want := simulate(t, "sequential", c, engine.Config{Horizon: 250, Probe: ref})
		for _, m := range modes {
			for p := 1; p <= 4; p++ {
				got := trace.NewRecorder()
				cfg := m.cfg
				cfg.Workers, cfg.Horizon, cfg.Probe = p, 250, got
				cfg.Engine = m.engine
				res, err := engine.Run(context.Background(), c, cfg)
				var stall *guard.StallError
				if errors.As(err, &stall) {
					stalled[seed] = true
					continue
				}
				if err != nil {
					t.Fatalf("seed %d %s P=%d: %v", seed, m.name, p, err)
				}
				if d := trace.Diff(c, ref, got); d != "" {
					t.Fatalf("seed %d %s P=%d: history mismatch: %s", seed, m.name, p, d)
				}
				for i := range res.Final {
					if !res.Final[i].Equal(want.Final[i]) {
						t.Fatalf("seed %d %s P=%d: final value of node %s differs: %v vs %v",
							seed, m.name, p, c.Nodes[i].Name, res.Final[i], want.Final[i])
					}
				}
			}
		}
	}
}

func TestBatchedEventConsumption(t *testing.T) {
	// On a feed-forward circuit with generator inputs valid for all time,
	// elements near the source should consume many events per evaluation:
	// the paper's "very large problem size". Events-used per eval must
	// comfortably exceed 1 on the inverter array.
	c := gen.InverterArray(gen.InverterArrayConfig{Rows: 4, Cols: 8, ActiveRows: 4, TogglePeriod: 1})
	res := simulate(t, "asynchronous", c, engine.Config{Workers: 1, Horizon: 1000})
	perEval := float64(res.Stats.EventsUsed) / float64(res.Stats.Evals)
	if perEval < 5 {
		t.Errorf("events per evaluation = %.2f; batching is not happening", perEval)
	}
}

func TestFeedbackSerialisesEvaluation(t *testing.T) {
	// In the feedback ring, events can only be produced one at a time, so
	// events-per-eval should sit near 1 — the contrast the paper draws in
	// section 4.1.
	c := gen.FeedbackChain(15)
	res := simulate(t, "asynchronous", c, engine.Config{Workers: 1, Horizon: 2000})
	perEval := float64(res.Stats.EventsUsed) / float64(res.Stats.Evals)
	if perEval > 2 {
		t.Errorf("events per evaluation = %.2f; expected near-serial progress", perEval)
	}
}

func TestDeterministicHistories(t *testing.T) {
	c := gen.RandomCircuit(11, 100)
	r1 := trace.NewRecorder()
	simulate(t, "asynchronous", c, engine.Config{Workers: 4, Horizon: 300, Probe: r1})
	r2 := trace.NewRecorder()
	simulate(t, "asynchronous", c, engine.Config{Workers: 4, Horizon: 300, Probe: r2})
	if d := trace.Diff(c, r1, r2); d != "" {
		t.Fatalf("two runs differ: %s", d)
	}
}

func TestUtilizationBounded(t *testing.T) {
	c := gen.InverterArray(gen.DefaultInverterArray())
	res := simulate(t, "asynchronous", c, engine.Config{Workers: 2, Horizon: 400})
	u := res.Stats.Utilization()
	if u <= 0 || u > 1.0001 {
		t.Errorf("utilisation %f out of (0,1]", u)
	}
}

func TestBadWorkerCountError(t *testing.T) {
	res, err := engine.Run(context.Background(), gen.FeedbackChain(3), engine.Config{Engine: "asynchronous", Workers: -1, Horizon: 10})
	if err == nil {
		t.Fatal("Workers=-1 did not return an error")
	}
	if res != nil {
		t.Fatal("bad config must not produce a result")
	}
}

func TestZeroHorizon(t *testing.T) {
	c := gen.FeedbackChain(3)
	res := simulate(t, "asynchronous", c, engine.Config{Workers: 2, Horizon: 0})
	if res.Stats.NodeUpdates != 0 {
		t.Errorf("updates at zero horizon: %d", res.Stats.NodeUpdates)
	}
}

func TestClockedLookaheadBoundsEvals(t *testing.T) {
	// Without DFF lookahead, valid-times creep around the CPU's register
	// feedback loops a tick or two per activation and evaluations explode
	// by ~100x over the event-driven count. With lookahead the flood must
	// stay within an order of magnitude.
	cfg := gen.DefaultCPU()
	c := gen.CPU(cfg)
	horizon := gen.CPUHorizon(cfg, 30)
	asyncRes := simulate(t, "asynchronous", c, engine.Config{Workers: 1, Horizon: horizon})
	seqRes := simulate(t, "sequential", c, engine.Config{Horizon: horizon})
	if asyncRes.Stats.Evals > 15*seqRes.Stats.Evals {
		t.Errorf("async evals %d vs event-driven %d: lookahead not effective",
			asyncRes.Stats.Evals, seqRes.Stats.Evals)
	}
}

func TestLookaheadAblation(t *testing.T) {
	// The ablation must still be exact, just slower: same histories, far
	// more evaluations on the feedback-heavy CPU.
	cfg := gen.DefaultCPU()
	c := gen.CPU(cfg)
	horizon := gen.CPUHorizon(cfg, 12)

	ref := trace.NewRecorder()
	with := simulate(t, "asynchronous", c, engine.Config{Workers: 2, Horizon: horizon, Probe: ref})
	got := trace.NewRecorder()
	without := simulate(t, "asynchronous", c, engine.Config{Workers: 2, Horizon: horizon, Probe: got, NoLookahead: true})
	if d := trace.Diff(c, ref, got); d != "" {
		t.Fatalf("lookahead changed results: %s", d)
	}
	if without.Stats.Evals < 3*with.Stats.Evals {
		t.Errorf("lookahead saves little here: %d vs %d evals",
			without.Stats.Evals, with.Stats.Evals)
	}
}

func TestGateLookaheadExact(t *testing.T) {
	// The controlling-value optimisation must not change any history.
	circuits := []*circuit.Circuit{
		gen.InverterArray(gen.InverterArrayConfig{Rows: 6, Cols: 6, ActiveRows: 4, TogglePeriod: 2}),
		gen.FeedbackChain(9),
		gen.CPU(gen.DefaultCPU()),
	}
	horizons := []circuit.Time{300, 400, gen.CPUHorizon(gen.DefaultCPU(), 25)}
	for i, c := range circuits {
		ref := trace.NewRecorder()
		simulate(t, "sequential", c, engine.Config{Horizon: horizons[i], Probe: ref})
		got := trace.NewRecorder()
		simulate(t, "asynchronous", c, engine.Config{Workers: 2, Horizon: horizons[i], Probe: got, GateLookahead: true})
		if d := trace.Diff(c, ref, got); d != "" {
			t.Fatalf("%s: gate lookahead changed results: %s", c.Name, d)
		}
	}
	for seed := int64(20); seed < 32; seed++ {
		c := gen.RandomCircuit(seed, 80)
		ref := trace.NewRecorder()
		simulate(t, "sequential", c, engine.Config{Horizon: 250, Probe: ref})
		got := trace.NewRecorder()
		simulate(t, "asynchronous", c, engine.Config{Workers: 3, Horizon: 250, Probe: got, GateLookahead: true})
		if d := trace.Diff(c, ref, got); d != "" {
			t.Fatalf("seed %d: gate lookahead changed results: %s", seed, d)
		}
	}
}

func TestGateLookaheadSkipsWork(t *testing.T) {
	// An AND gate whose busy input trickles events out of a feedback ring
	// while the hold input pins the output low: with the optimisation the
	// gate must consume those events without invoking its model.
	ringLen := 9
	b := circuit.NewBuilder("gate-la")
	load := b.Bit("load")
	zero := b.Bit("zero")
	y := b.Bit("y")
	b.Wave("loadgen", load, []circuit.Time{0, circuit.Time(2 * ringLen)},
		[]logic.Value{logic.V(1, 1), logic.V(1, 0)})
	b.Const("zgen", zero, logic.V(1, 0))
	prev := y
	for i := 0; i < ringLen; i++ {
		out := b.Bit(name2("fb", i))
		b.Gate(circuit.KindNot, name2("inv", i), 1, out, prev)
		prev = out
	}
	b.AddElement(circuit.KindMux2, "mux", 1, []circuit.NodeID{y},
		[]circuit.NodeID{load, prev, zero}, circuit.Params{})

	hold := b.Bit("hold")
	b.Wave("holdgen", hold, []circuit.Time{0, 1900},
		[]logic.Value{logic.V(1, 0), logic.V(1, 1)})
	// A whole bank of gated consumers: without the optimisation each one
	// re-evaluates per ring event; with it they all skip.
	for i := 0; i < 32; i++ {
		gated := b.Bit(name2("gated", i))
		b.Gate(circuit.KindAnd, name2("gate", i), 1, gated, hold, y)
	}
	c := b.MustBuild()

	with := simulate(t, "asynchronous", c, engine.Config{Workers: 1, Horizon: 2000, GateLookahead: true})
	without := simulate(t, "asynchronous", c, engine.Config{Workers: 1, Horizon: 2000})
	if with.Stats.NodeUpdates != without.Stats.NodeUpdates {
		t.Fatalf("update counts differ: %d vs %d", with.Stats.NodeUpdates, without.Stats.NodeUpdates)
	}
	if with.Stats.ModelCalls*2 > without.Stats.ModelCalls {
		t.Errorf("gate lookahead barely helped: %d vs %d model calls",
			with.Stats.ModelCalls, without.Stats.ModelCalls)
	}
}

func name2(p string, i int) string {
	return p + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

func TestChandyMisraDeadlockRecoveryExact(t *testing.T) {
	// The Chandy-Misra discipline (frozen valid-times, global deadlock
	// recovery) must produce the same histories as everything else.
	circuits := []struct {
		c       *circuit.Circuit
		horizon circuit.Time
	}{
		{gen.InverterArray(gen.InverterArrayConfig{Rows: 6, Cols: 6, ActiveRows: 5, TogglePeriod: 2}), 200},
		{gen.FeedbackChain(9), 400},
		{gen.FuncMultiplier(gen.DefaultMultiplier()), 512},
	}
	for _, tc := range circuits {
		ref := trace.NewRecorder()
		simulate(t, "sequential", tc.c, engine.Config{Horizon: tc.horizon, Probe: ref})
		got := trace.NewRecorder()
		res := simulate(t, "chandy-misra", tc.c, engine.Config{Workers: 2, Horizon: tc.horizon, Probe: got})
		if d := trace.Diff(tc.c, ref, got); d != "" {
			t.Fatalf("%s: CM mode differs: %s", tc.c.Name, d)
		}
		if res.Rounds < 2 {
			t.Errorf("%s: expected deadlock-recovery rounds, got %d", tc.c.Name, res.Rounds)
		}
		t.Logf("%s: %d deadlock-recovery rounds, %d evals", tc.c.Name, res.Rounds, res.Stats.Evals)
	}
}

func TestFeedbackNeedsManyRecoveryRounds(t *testing.T) {
	// The paper's point against Chandy-Misra: around a feedback loop the
	// simulation deadlocks over and over; incremental valid-times (the
	// default mode) never deadlock at all.
	c := gen.FeedbackChain(9)
	cm := simulate(t, "chandy-misra", c, engine.Config{Workers: 2, Horizon: 400})
	inc := newSim(c, engine.Config{Workers: 2, Horizon: 400}, async)
	inc.runWorkers()
	if inc.recoverDeadlock() {
		t.Error("incremental mode left a deadlock to recover from")
	}
	if cm.Rounds < 20 {
		t.Errorf("CM on a feedback ring broke only %d deadlocks", cm.Rounds)
	}
}

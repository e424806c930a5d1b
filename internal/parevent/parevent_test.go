package parevent

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/gen"
	"parsim/internal/logic"
	_ "parsim/internal/seq"
	"parsim/internal/stats"
	"parsim/internal/trace"
)

// simulate runs c on the event-driven engine through the registry.
func simulate(t testing.TB, c *circuit.Circuit, cfg engine.Config) *engine.Report {
	t.Helper()
	cfg.Engine = "event-driven"
	rep, err := engine.Run(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// modeConfig is the Config that selects mode m at p workers.
func modeConfig(p int, m Mode) engine.Config {
	return engine.Config{Workers: p, CentralQueue: m == Central, NoSteal: m == NoSteal}
}

// oracle is the sequential simulator's verdict on one circuit and horizon.
type oracle struct {
	c       *circuit.Circuit
	horizon circuit.Time
	hist    *trace.Recorder
	res     *engine.Report
}

func newOracle(c *circuit.Circuit, horizon circuit.Time) *oracle {
	o := &oracle{c: c, horizon: horizon, hist: trace.NewRecorder()}
	o.res, _ = engine.Run(context.Background(), c, engine.Config{Engine: "sequential", Horizon: horizon, Probe: o.hist})
	return o
}

// check requires a run's per-node histories, final values and evaluation,
// update and step counts to equal the sequential simulator's.
func (o *oracle) check(t *testing.T, what string, hist *trace.Recorder, final []logic.Value, run *stats.Run) {
	t.Helper()
	if d := trace.Diff(o.c, o.hist, hist); d != "" {
		t.Fatalf("%s %s: history mismatch: %s", o.c.Name, what, d)
	}
	for i := range final {
		if !final[i].Equal(o.res.Final[i]) {
			t.Errorf("%s %s: final value of node %s differs", o.c.Name, what, o.c.Nodes[i].Name)
		}
	}
	want := &o.res.Stats
	if run.Evals != want.Evals || run.NodeUpdates != want.NodeUpdates || run.TimeSteps != want.TimeSteps {
		t.Errorf("%s %s: evals/updates/steps %d/%d/%d, sequential %d/%d/%d", o.c.Name, what,
			run.Evals, run.NodeUpdates, run.TimeSteps, want.Evals, want.NodeUpdates, want.TimeSteps)
	}
}

// run simulates the oracle's circuit with cfg and checks the outcome.
func (o *oracle) run(t *testing.T, cfg engine.Config) *engine.Report {
	t.Helper()
	got := trace.NewRecorder()
	cfg.Horizon = o.horizon
	cfg.Probe = got
	res := simulate(t, o.c, cfg)
	o.check(t, fmt.Sprintf("(P=%d, %v)", cfg.Workers, modeOf(cfg)), got, res.Final, &res.Stats)
	return res
}

// crossCheck runs the circuit under the sequential oracle and under this
// simulator with the given options, requiring identical node histories.
func crossCheck(t *testing.T, c *circuit.Circuit, horizon circuit.Time, cfg engine.Config) *engine.Report {
	t.Helper()
	return newOracle(c, horizon).run(t, cfg)
}

var allModes = []Mode{Distributed, NoSteal, Central}

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
	res := crossCheck(t, c, gen.CPUHorizon(cfg, 40), engine.Config{Workers: 4})
	if res.Stats.TimeSteps == 0 {
		t.Error("no time steps")
	}
}

func TestMatchesSequentialOnFeedback(t *testing.T) {
	c := gen.FeedbackChain(13)
	crossCheck(t, c, 600, engine.Config{Workers: 4})
}

// TestMatchesSequentialOnRandomCircuits is the differential corpus: random
// circuits with feedback and mixed delays, every mode at one to four
// workers, finals and per-node histories against the sequential oracle.
func TestMatchesSequentialOnRandomCircuits(t *testing.T) {
	seeds := int64(100)
	if testing.Short() {
		seeds = 12
	}
	for seed := int64(0); seed < seeds; seed++ {
		o := newOracle(gen.RandomCircuit(seed, 80), 250)
		for _, m := range allModes {
			for p := 1; p <= 4; p++ {
				o.run(t, modeConfig(p, m))
			}
		}
	}
}

func TestAllModesMatch(t *testing.T) {
	c := gen.InverterArray(gen.InverterArrayConfig{Rows: 6, Cols: 6, ActiveRows: 6, TogglePeriod: 1})
	for _, m := range allModes {
		crossCheck(t, c, 200, modeConfig(4, m))
	}
}

// paperCircuit is one circuit of the repository benchmark at its horizon,
// with the evaluation and node-update counts the sequential simulator makes.
type paperCircuit struct {
	o              *oracle
	evals, updates int64
}

func paperCircuits() []paperCircuit {
	cpu := gen.DefaultCPU()
	return []paperCircuit{
		{newOracle(gen.GateMultiplier(gen.DefaultMultiplier()), 512), 40977, 29838},
		{newOracle(gen.InverterArray(gen.DefaultInverterArray()), 128), 61696, 65280},
		{newOracle(gen.CPU(cpu), gen.CPUHorizon(cpu, 16)), 33644, 9482},
	}
}

// TestPaperCircuitCounts pins the work counts on the paper circuits: every
// mode makes exactly the sequential simulator's evaluations, node updates
// and time steps, whatever the worker count.
func TestPaperCircuitCounts(t *testing.T) {
	for _, pc := range paperCircuits() {
		if got := pc.o.res.Stats; got.Evals != pc.evals || got.NodeUpdates != pc.updates {
			t.Fatalf("%s: sequential evals/updates %d/%d, pinned %d/%d",
				pc.o.c.Name, got.Evals, got.NodeUpdates, pc.evals, pc.updates)
		}
		for _, m := range allModes {
			for _, p := range []int{1, 2} {
				pc.o.run(t, modeConfig(p, m))
			}
		}
	}
}

// TestTwoCrossingsPerStep: the owner-routed step crosses the barrier twice,
// plus the one crossing at which the run ends. A third crossing per step —
// the round-robin design had one — would show here on every worker's row.
func TestTwoCrossingsPerStep(t *testing.T) {
	o := newOracle(gen.RandomCircuit(3, 120), 300)
	for _, m := range []Mode{Distributed, NoSteal} {
		for p := 1; p <= 4; p++ {
			res := o.run(t, modeConfig(p, m))
			for w, row := range res.Stats.PerWorker {
				if want := 2*res.Stats.TimeSteps + 1; row.BarrierWaits != want {
					t.Errorf("%v P=%d worker %d: %d barrier waits, want %d", m, p, w, row.BarrierWaits, want)
				}
				if p == 1 && row.Idle != 0 {
					t.Errorf("%v: one worker reports %v idle", m, row.Idle)
				}
				if m == NoSteal && row.Steals != 0 {
					t.Errorf("no-steal P=%d worker %d stole %d elements", p, w, row.Steals)
				}
			}
		}
	}
}

// runByHand drives every worker's phases in turn on one goroutine, in the
// order the barriers impose; order(step) lists the workers in the order
// their evaluation phases run.
func runByHand(s *sim, order func(step int64) []*worker) {
	for now := circuit.Time(-1); ; {
		if now >= 0 {
			for _, w := range order(s.workers[0].steps) {
				w.evalPhase(now)
			}
		}
		now = -1
		for _, w := range s.workers {
			w.publishPeek()
			if pt := s.lanes[w.id].peek; pt >= 0 && (now < 0 || pt < now) {
				now = pt
			}
		}
		if now < 0 || now >= s.cfg.Horizon {
			return
		}
		for _, w := range s.workers {
			w.steps++
		}
		for _, w := range s.workers {
			w.updatePhase(now)
		}
		for _, w := range s.workers {
			w.merge()
		}
	}
}

// TestSkewedOwnershipIsStolen gives worker 0 every element, which balanced
// blocks never do: the other three workers can only work by stealing, every
// update they schedule travels through the victim's fold, and the result
// must still be the oracle's. The phases are driven by hand so that the
// steals do not depend on the goroutine scheduler: in each step one worker
// evaluates first and drains the owner's whole run list, in turn the owner
// and each of the three thieves.
func TestSkewedOwnershipIsStolen(t *testing.T) {
	o := newOracle(gen.InverterArray(gen.InverterArrayConfig{Rows: 16, Cols: 16, ActiveRows: 16, TogglePeriod: 1}), 200)
	got := trace.NewRecorder()
	s := newSim(o.c, engine.Config{Workers: 4, Horizon: o.horizon, Probe: got}, make([]int32, len(o.c.Elems)))
	runByHand(s, func(step int64) []*worker {
		first := int(step) % 4
		return slices.Concat(s.workers[first:], s.workers[:first])
	})
	run := stats.Run{TimeSteps: s.workers[0].steps}
	for _, w := range s.workers {
		run.Evals += w.wc.Evals
		run.NodeUpdates += w.wc.NodeUpdates
		if w.id > 0 && (w.wc.Steals != w.wc.Evals || w.wc.Steals == 0) {
			t.Errorf("worker %d owns nothing, evaluated %d elements and stole %d", w.id, w.wc.Evals, w.wc.Steals)
		}
	}
	o.check(t, "(all owned by worker 0)", got, s.val, &run)
	if s.workers[0].wc.Evals == 0 {
		t.Error("the owner evaluated nothing in the steps it went first")
	}
}

// TestThiefPeekCarriesStolenUpdates drives the phases of two workers by hand
// so that the thief deterministically steals every evaluation. The owner's
// wheel then learns of an update only when it folds it, after the time has
// been agreed: on the feedback ring the next event time is known to the
// thief alone in almost every step, and the run is right only if the
// thief's peek carries it.
func TestThiefPeekCarriesStolenUpdates(t *testing.T) {
	o := newOracle(gen.FeedbackChain(13), 600)
	got := trace.NewRecorder()
	s := newSim(o.c, engine.Config{Workers: 2, Horizon: o.horizon, Probe: got}, make([]int32, len(o.c.Elems)))
	owner, thief := s.workers[0], s.workers[1]
	carried := 0
	runByHand(s, func(int64) []*worker {
		// The peeks that agreed on this step's time.
		if op, tp := s.lanes[0].peek, s.lanes[1].peek; tp >= 0 && (op < 0 || tp < op) {
			carried++
		}
		return []*worker{thief, owner} // the thief's list is empty; it takes all of the owner's
	})
	run := stats.Run{TimeSteps: owner.steps, Evals: thief.wc.Evals, NodeUpdates: owner.wc.NodeUpdates + thief.wc.NodeUpdates}
	o.check(t, "(hand-driven, every evaluation stolen)", got, s.val, &run)
	if owner.wc.Evals != 0 || thief.wc.Steals != thief.wc.Evals {
		t.Errorf("owner evaluated %d, thief stole %d of its %d", owner.wc.Evals, thief.wc.Steals, thief.wc.Evals)
	}
	if carried < int(run.TimeSteps)/2 {
		t.Errorf("only %d of %d steps took their time from the thief's carried minimum", carried, run.TimeSteps)
	}
}

func TestModeNames(t *testing.T) {
	if Distributed.String() != "distributed" || NoSteal.String() != "no-steal" ||
		Central.String() != "central" || Mode(9).String() != "unknown" {
		t.Error("mode names wrong")
	}
}

func TestAvailabilityCollection(t *testing.T) {
	c := gen.InverterArray(gen.InverterArrayConfig{Rows: 4, Cols: 4, ActiveRows: 4, TogglePeriod: 1})
	res := simulate(t, c, engine.Config{Workers: 2, Horizon: 100, CollectAvail: true})
	if res.Stats.Avail.N() == 0 {
		t.Fatal("no availability samples")
	}
	// Steady state: 16 inverters + 4 inputs active each tick.
	if mean := res.Stats.Avail.Mean(); mean < 8 || mean > 24 {
		t.Errorf("mean availability %.1f out of range", mean)
	}
}

func TestUtilizationBounded(t *testing.T) {
	c := gen.InverterArray(gen.DefaultInverterArray())
	res := simulate(t, c, engine.Config{Workers: 2, Horizon: 400})
	u := res.Stats.Utilization()
	if u <= 0 || u > 1.0001 {
		t.Errorf("utilisation %f out of (0,1]", u)
	}
}

func TestBadWorkerCountError(t *testing.T) {
	c := gen.FeedbackChain(3)
	res, err := engine.Run(context.Background(), c, engine.Config{Engine: "event-driven", Workers: -1, Horizon: 10})
	if err == nil {
		t.Fatal("Workers=-1 did not return an error")
	}
	if res != nil {
		t.Fatal("bad config must not produce a result")
	}
}

func TestDeterministicHistories(t *testing.T) {
	// Parallel execution order varies, but histories must not.
	c := gen.RandomCircuit(5, 100)
	r1 := trace.NewRecorder()
	simulate(t, c, engine.Config{Workers: 4, Horizon: 300, Probe: r1})
	r2 := trace.NewRecorder()
	simulate(t, c, engine.Config{Workers: 4, Horizon: 300, Probe: r2})
	if d := trace.Diff(c, r1, r2); d != "" {
		t.Fatalf("two runs differ: %s", d)
	}
}

func BenchmarkPaperCircuits(b *testing.B) {
	for _, pc := range paperCircuits() {
		for _, p := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/p%d", pc.o.c.Name, p), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					simulate(b, pc.o.c, engine.Config{Workers: p, Horizon: pc.o.horizon})
				}
			})
		}
	}
}

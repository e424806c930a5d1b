package auto

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/gen"
)

// TestRegistry: the engine registers under its canonical name and the
// "select" alias.
func TestRegistry(t *testing.T) {
	for _, name := range []string{"auto", "select"} {
		e, err := engine.Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if e.Name() != "auto" {
			t.Errorf("Get(%q).Name() = %q, want auto", name, e.Name())
		}
	}
}

// TestChooseInverterArray pins the selection on the paper's flagship
// circuit: every inverter is active every tick, so the plane core's
// selective trace runs every block and still costs the least per tick,
// and 96 ticks pay for its lowering. The complete five-entry ranking of
// the engines auto can pick (the plane core ranks once, as jit) is
// recorded on the selection.
func TestChooseInverterArray(t *testing.T) {
	c := gen.InverterArray(gen.DefaultInverterArray())
	sel, icfg := Choose(c, engine.Config{Workers: 4, Horizon: 96, CostSpin: 300})
	if sel.Engine != "jit" {
		t.Errorf("selected %q, want jit", sel.Engine)
	}
	if icfg.Workers < 1 || icfg.Workers > 4 {
		t.Errorf("inner config workers %d outside budget", icfg.Workers)
	}
	if len(sel.Ranking) != 5 {
		t.Errorf("ranking has %d entries, want 5", len(sel.Ranking))
	}
	if sel.Profile == nil || sel.Profile.Elements == 0 {
		t.Error("selection carries no profile")
	}
	if sel.Confidence < 0 || sel.Confidence > 1 {
		t.Errorf("confidence %v outside [0, 1]", sel.Confidence)
	}
}

// TestChooseLanesForceVector: a batched (stimulus-vector) job has no
// choice — only the plane core produces LaneFinal, and auto names it jit.
func TestChooseLanesForceVector(t *testing.T) {
	c := gen.InverterArray(gen.DefaultInverterArray())
	sel, icfg := Choose(c, engine.Config{Workers: 2, Horizon: 96, Lanes: 16})
	if sel.Engine != "jit" {
		t.Fatalf("lanes=16 selected %q, want jit", sel.Engine)
	}
	for _, ch := range sel.Ranking {
		if ch.Engine == "jit" && !strings.Contains(ch.Reason, "lane engine") {
			t.Errorf("forced selection reason %q does not say why", ch.Reason)
		}
	}
	if sel.Confidence != 1 {
		t.Errorf("forced selection confidence %v, want 1", sel.Confidence)
	}
	if icfg.Lanes != 16 {
		t.Errorf("inner config lanes %d, want 16", icfg.Lanes)
	}
}

// TestChooseSequentialFallsToOneWorker: when the winner is the sequential
// engine the inner config must not carry a parallel worker count.
func TestChooseSequentialFallsToOneWorker(t *testing.T) {
	c := gen.InverterArray(gen.DefaultInverterArray())
	sel, icfg := Choose(c, engine.Config{Workers: 4, Horizon: 96})
	if sel.Engine == "sequential" && icfg.Workers != 1 {
		t.Errorf("sequential selected with %d workers", icfg.Workers)
	}
}

// TestRunEndToEnd: dispatching "auto" through the registry must run the
// selected engine and reproduce the sequential engine's final node values
// (the selection may pick any engine; all of them preserve event timing on
// the unit-delay array).
func TestRunEndToEnd(t *testing.T) {
	c := gen.InverterArray(gen.DefaultInverterArray())
	horizon := circuit.Time(96)
	rep, err := engine.Run(context.Background(), c, engine.Config{
		Engine: "auto", Workers: 2, Horizon: horizon,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Selected == nil {
		t.Fatal("report carries no selection")
	}
	if rep.Selected.Engine == "auto" || rep.Selected.Engine == "" {
		t.Fatalf("selection did not resolve to a concrete engine: %q", rep.Selected.Engine)
	}
	if rep.Stats.Evals == 0 && rep.Stats.Totals().Evals == 0 {
		t.Error("selected engine did not run")
	}
	ref, err := engine.Run(context.Background(), c.Clone(), engine.Config{Engine: "sequential", Horizon: horizon})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Final) != len(ref.Final) {
		t.Fatalf("final length %d vs sequential %d", len(rep.Final), len(ref.Final))
	}
	for i := range ref.Final {
		if rep.Final[i] != ref.Final[i] {
			t.Fatalf("node %d final %v, sequential says %v (engine %s)",
				i, rep.Final[i], ref.Final[i], rep.Selected.Engine)
		}
	}
}

// TestRunScalarJobOnVector: a forced batched job runs end to end on the
// plane core and keeps its lanes. (A scalar job the cost model hands to the
// core runs at jit's default of one lane with no fix-up.)
func TestRunScalarJobOnVector(t *testing.T) {
	c := gen.InverterArray(gen.DefaultInverterArray())
	rep, err := engine.Run(context.Background(), c, engine.Config{
		Engine: "auto", Workers: 1, Horizon: 96, Lanes: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Selected.Engine != "jit" {
		t.Fatalf("batched job selected %q", rep.Selected.Engine)
	}
	if got := rep.LaneFinal.Lanes(); got != 16 {
		t.Errorf("batched job produced %d lanes, want 16", got)
	}
}

// TestChoosePaperCircuits pins what auto picks on the paper's circuits at
// one and four workers, asked twice: the second answer comes through the
// profile memo and must be the first one.
func TestChoosePaperCircuits(t *testing.T) {
	cases := []struct {
		c        *circuit.Circuit
		at1, at4 string
	}{
		{gen.GateMultiplier(gen.DefaultMultiplier()), "event-driven", "event-driven"},
		{gen.FuncMultiplier(gen.DefaultMultiplier()), "event-driven", "asynchronous"},
		{gen.InverterArray(gen.DefaultInverterArray()), "jit", "jit"},
		{gen.CPU(gen.DefaultCPU()), "event-driven", "event-driven"},
	}
	for _, tc := range cases {
		for workers, want := range map[int]string{1: tc.at1, 4: tc.at4} {
			cfg := engine.Config{Workers: workers, Horizon: 512}
			first, _ := Choose(tc.c, cfg)
			again, _ := Choose(tc.c.Clone(), cfg)
			if first.Engine != want || first.Workers != workers {
				t.Errorf("%s at %d workers: selected %s x%d, want %s x%d",
					tc.c.Name, workers, first.Engine, first.Workers, want, workers)
			}
			if !reflect.DeepEqual(first, again) {
				t.Errorf("%s at %d workers: memoized selection differs:\n first %+v\n again %+v",
					tc.c.Name, workers, first, again)
			}
		}
	}
}

// TestChoosePinnedWinners pins auto's winner — engine, workers, partition
// strategy and lanes — on the four paper circuits across worker budgets,
// CostSpin and lanes, so a cost-model edit that moves any pick shows here.
func TestChoosePinnedWinners(t *testing.T) {
	circuits := map[string]*circuit.Circuit{}
	for _, c := range []*circuit.Circuit{
		gen.GateMultiplier(gen.DefaultMultiplier()),
		gen.FuncMultiplier(gen.DefaultMultiplier()),
		gen.InverterArray(gen.DefaultInverterArray()),
		gen.CPU(gen.DefaultCPU()),
	} {
		circuits[c.Name] = c
	}
	rows := []struct {
		circuit  string
		budget   int
		spin     int64
		lanes    int
		engine   string
		workers  int
		strategy string
		winLanes int
	}{
		{"mult16-gate", 1, 0, 0, "event-driven", 1, "", 0},
		{"mult16-gate", 1, 0, 16, "jit", 1, "", 16},
		{"mult16-gate", 1, 300, 0, "event-driven", 1, "", 0},
		{"mult16-gate", 1, 300, 16, "jit", 1, "", 16},
		{"mult16-gate", 2, 0, 0, "event-driven", 2, "", 0},
		{"mult16-gate", 2, 0, 16, "jit", 2, "", 16},
		{"mult16-gate", 2, 300, 0, "event-driven", 2, "", 0},
		{"mult16-gate", 2, 300, 16, "jit", 2, "", 16},
		{"mult16-gate", 4, 0, 0, "event-driven", 4, "", 0},
		{"mult16-gate", 4, 0, 16, "jit", 4, "", 16},
		{"mult16-gate", 4, 300, 0, "event-driven", 4, "", 0},
		{"mult16-gate", 4, 300, 16, "jit", 4, "", 16},
		{"mult16-gate", 16, 0, 0, "asynchronous", 16, "", 0},
		{"mult16-gate", 16, 0, 16, "jit", 16, "", 16},
		{"mult16-gate", 16, 300, 0, "asynchronous", 16, "", 0},
		{"mult16-gate", 16, 300, 16, "jit", 16, "", 16},
		{"mult16-func", 1, 0, 0, "event-driven", 1, "", 0},
		{"mult16-func", 1, 0, 16, "jit", 1, "", 16},
		{"mult16-func", 1, 300, 0, "event-driven", 1, "", 0},
		{"mult16-func", 1, 300, 16, "jit", 1, "", 16},
		{"mult16-func", 2, 0, 0, "event-driven", 2, "", 0},
		{"mult16-func", 2, 0, 16, "jit", 2, "", 16},
		{"mult16-func", 2, 300, 0, "event-driven", 2, "", 0},
		{"mult16-func", 2, 300, 16, "jit", 2, "", 16},
		{"mult16-func", 4, 0, 0, "asynchronous", 4, "", 0},
		{"mult16-func", 4, 0, 16, "jit", 4, "", 16},
		{"mult16-func", 4, 300, 0, "event-driven", 4, "", 0},
		{"mult16-func", 4, 300, 16, "jit", 4, "", 16},
		{"mult16-func", 16, 0, 0, "asynchronous", 16, "", 0},
		{"mult16-func", 16, 0, 16, "jit", 16, "", 16},
		{"mult16-func", 16, 300, 0, "asynchronous", 16, "", 0},
		{"mult16-func", 16, 300, 16, "jit", 16, "", 16},
		{"inverter-array-32x16-a32", 1, 0, 0, "jit", 1, "", 1},
		{"inverter-array-32x16-a32", 1, 0, 16, "jit", 1, "", 16},
		{"inverter-array-32x16-a32", 1, 300, 0, "jit", 1, "", 1},
		{"inverter-array-32x16-a32", 1, 300, 16, "jit", 1, "", 16},
		{"inverter-array-32x16-a32", 2, 0, 0, "jit", 2, "", 1},
		{"inverter-array-32x16-a32", 2, 0, 16, "jit", 2, "", 16},
		{"inverter-array-32x16-a32", 2, 300, 0, "jit", 2, "", 1},
		{"inverter-array-32x16-a32", 2, 300, 16, "jit", 2, "", 16},
		{"inverter-array-32x16-a32", 4, 0, 0, "jit", 4, "", 1},
		{"inverter-array-32x16-a32", 4, 0, 16, "jit", 4, "", 16},
		{"inverter-array-32x16-a32", 4, 300, 0, "jit", 4, "", 1},
		{"inverter-array-32x16-a32", 4, 300, 16, "jit", 4, "", 16},
		{"inverter-array-32x16-a32", 16, 0, 0, "jit", 16, "", 1},
		{"inverter-array-32x16-a32", 16, 0, 16, "jit", 16, "", 16},
		{"inverter-array-32x16-a32", 16, 300, 0, "jit", 16, "", 1},
		{"inverter-array-32x16-a32", 16, 300, 16, "jit", 16, "", 16},
		{"microprocessor", 1, 0, 0, "event-driven", 1, "", 0},
		{"microprocessor", 1, 0, 16, "jit", 1, "", 16},
		{"microprocessor", 1, 300, 0, "event-driven", 1, "", 0},
		{"microprocessor", 1, 300, 16, "jit", 1, "", 16},
		{"microprocessor", 2, 0, 0, "event-driven", 2, "", 0},
		{"microprocessor", 2, 0, 16, "jit", 2, "", 16},
		{"microprocessor", 2, 300, 0, "event-driven", 2, "", 0},
		{"microprocessor", 2, 300, 16, "jit", 2, "", 16},
		{"microprocessor", 4, 0, 0, "event-driven", 4, "", 0},
		{"microprocessor", 4, 0, 16, "jit", 4, "", 16},
		{"microprocessor", 4, 300, 0, "event-driven", 4, "", 0},
		{"microprocessor", 4, 300, 16, "jit", 4, "", 16},
		{"microprocessor", 16, 0, 0, "event-driven", 16, "", 0},
		{"microprocessor", 16, 0, 16, "jit", 16, "", 16},
		{"microprocessor", 16, 300, 0, "event-driven", 16, "", 0},
		{"microprocessor", 16, 300, 16, "jit", 16, "", 16},
	}
	for _, r := range rows {
		cfg := engine.Config{Workers: r.budget, Horizon: 512, CostSpin: r.spin, Lanes: r.lanes}
		sel, icfg := Choose(circuits[r.circuit], cfg)
		if sel.Engine != r.engine || sel.Workers != r.workers || sel.Strategy != r.strategy || sel.Lanes != r.winLanes {
			t.Errorf("%s budget %d spin %d lanes %d: selected %s x%d strategy %q lanes %d, want %s x%d strategy %q lanes %d",
				r.circuit, r.budget, r.spin, r.lanes, sel.Engine, sel.Workers, sel.Strategy, sel.Lanes,
				r.engine, r.workers, r.strategy, r.winLanes)
		}
		if icfg.Workers != sel.Workers {
			t.Errorf("%s budget %d spin %d lanes %d: inner config runs %d workers, selection says %d",
				r.circuit, r.budget, r.spin, r.lanes, icfg.Workers, sel.Workers)
		}
	}
}

// TestChosenConfigRunsAsIs: the config Choose returns names its winner, so
// engine.Run runs it unchanged and reproduces the engine=auto run on each
// of the paper's four circuits — same final values, evaluations and node
// updates.
func TestChosenConfigRunsAsIs(t *testing.T) {
	mult := gen.DefaultMultiplier()
	cpu := gen.DefaultCPU()
	cases := []struct {
		name    string
		build   func() *circuit.Circuit
		horizon circuit.Time
	}{
		{"inverter-array", func() *circuit.Circuit { return gen.InverterArray(gen.DefaultInverterArray()) }, 96},
		{"mult16-gate", func() *circuit.Circuit { return gen.GateMultiplier(mult) }, 256},
		{"mult16-func", func() *circuit.Circuit { return gen.FuncMultiplier(mult) }, 256},
		{"microprocessor", func() *circuit.Circuit { return gen.CPU(cpu) }, gen.CPUHorizon(cpu, 40)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := engine.Config{Workers: 2, Horizon: tc.horizon}
			c := tc.build()
			_, icfg := Choose(c, cfg)
			got, err := engine.Run(context.Background(), c, icfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Engine = "auto"
			want, err := engine.Run(context.Background(), tc.build(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Stats.Algorithm != want.Stats.Algorithm {
				t.Errorf("chosen config ran %s, engine=auto ran %s", got.Stats.Algorithm, want.Stats.Algorithm)
			}
			if !reflect.DeepEqual(got.Final, want.Final) {
				t.Error("final values differ from the engine=auto run")
			}
			if got.Stats.Evals != want.Stats.Evals || got.Stats.NodeUpdates != want.Stats.NodeUpdates {
				t.Errorf("evals/node updates %d/%d, engine=auto %d/%d",
					got.Stats.Evals, got.Stats.NodeUpdates, want.Stats.Evals, want.Stats.NodeUpdates)
			}
		})
	}
}

package auto

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/gen"

	// The candidates the selector must be able to hand a run to.
	_ "parsim/internal/compiled"
	_ "parsim/internal/core"
	_ "parsim/internal/dist"
	_ "parsim/internal/parevent"
	_ "parsim/internal/seq"
	_ "parsim/internal/timewarp"
	_ "parsim/internal/vector"
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
// circuit: the asynchronous engine at the full budget, with the complete
// eight-entry ranking (the plane core ranks once, as jit) recorded on the
// selection.
func TestChooseInverterArray(t *testing.T) {
	c := gen.InverterArray(gen.DefaultInverterArray())
	sel, icfg := Choose(c, engine.Config{Workers: 4, Horizon: 96, CostSpin: 300})
	if sel.Engine != "asynchronous" {
		t.Errorf("selected %q, want asynchronous", sel.Engine)
	}
	if icfg.Workers < 1 || icfg.Workers > 4 {
		t.Errorf("inner config workers %d outside budget", icfg.Workers)
	}
	if len(sel.Ranking) != 8 {
		t.Errorf("ranking has %d entries, want 8", len(sel.Ranking))
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
	rep, err := engine.Run(context.Background(), "auto", c, engine.Config{
		Workers: 2, Horizon: horizon,
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
	if rep.Run.Evals == 0 && rep.Run.Totals().Evals == 0 {
		t.Error("selected engine did not run")
	}
	ref, err := engine.Run(context.Background(), "sequential", c.Clone(), engine.Config{Horizon: horizon})
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
	rep, err := engine.Run(context.Background(), "auto", c, engine.Config{
		Workers: 1, Horizon: 96, Lanes: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Selected.Engine != "jit" {
		t.Fatalf("batched job selected %q", rep.Selected.Engine)
	}
	if len(rep.LaneFinal) != 16 {
		t.Errorf("batched job produced %d lanes, want 16", len(rep.LaneFinal))
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
		{gen.GateMultiplier(gen.DefaultMultiplier()), "asynchronous", "asynchronous"},
		{gen.FuncMultiplier(gen.DefaultMultiplier()), "event-driven", "asynchronous"},
		{gen.InverterArray(gen.DefaultInverterArray()), "asynchronous", "asynchronous"},
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

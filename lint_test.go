package parsim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"parsim/internal/engine"
)

// buildZeroDelayRing constructs the canonical asynchronous-simulation
// hazard: a ring of zero-delay gates that oscillates at a single
// timestamp once a definite value enters it. A pulse holds the NOR's
// controlling input high for two ticks (pinning the ring to known
// values), then releases it, leaving n0 = !n2 = n1 = !n0 with no delay
// anywhere to separate the updates in time. Without lint the engines
// variously panic ("schedule in the past"), spin until the context
// deadline, or terminate with stale X values — which is exactly why the
// analyzer reports zero-delay cycles at Error severity.
func buildZeroDelayRing(t *testing.T) *Circuit {
	t.Helper()
	b := NewBuilder("zero-delay-ring")
	pulse := b.Bit("pulse")
	n0, n1, n2 := b.Bit("n0"), b.Bit("n1"), b.Bit("n2")
	b.Wave("init", pulse, []Time{0, 2}, []Value{V(1, 1), V(1, 0)})
	b.Gate(Nor, "inject", 0, n0, pulse, n2)
	b.Gate(Not, "inv1", 0, n1, n0)
	b.Gate(Not, "inv2", 0, n2, n1)
	c, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return c
}

// TestLintRefusesZeroDelayRingAllEngines is the acceptance test for the
// lint integration: every registered engine, dispatched through
// SimulateContext, must refuse the zero-delay ring before running a
// single event. Zero-delay cycles are Error severity, so LintWarn is
// already enough; LintStrict must refuse too.
func TestLintRefusesZeroDelayRingAllEngines(t *testing.T) {
	algos := []Algorithm{
		Sequential, EventDriven, Compiled, Async, DistAsync, TimeWarp, ChandyMisra, Vector, JIT,
	}
	// The registry additionally carries "auto" (engine selection), which has
	// no Algorithm constant; its lint refusal is covered below via
	// Options.Engine.
	if got := len(engine.Names()); got != len(algos)+1 {
		t.Fatalf("registry has %d engines (%v), test covers %d — keep them in sync",
			got, engine.Names(), len(algos)+1)
	}
	t.Run("auto/strict", func(t *testing.T) {
		c := buildZeroDelayRing(t)
		_, err := Simulate(c, Options{
			Engine:  "auto",
			Horizon: 8,
			Workers: 2,
			Lint:    LintStrict,
		})
		if err == nil {
			t.Fatal("auto accepted a zero-delay ring under strict lint")
		}
		if !strings.Contains(err.Error(), "lint") {
			t.Errorf("error should name the lint refusal, got: %v", err)
		}
	})
	for _, algo := range algos {
		for _, mode := range []LintMode{LintWarn, LintStrict} {
			t.Run(algo+"/"+mode.String(), func(t *testing.T) {
				c := buildZeroDelayRing(t)
				_, err := Simulate(c, Options{
					Engine:  algo,
					Horizon: 8,
					Workers: 1,
					Lint:    mode,
				})
				if err == nil {
					t.Fatalf("%s accepted a zero-delay ring under lint %s", algo, mode)
				}
				if !strings.Contains(err.Error(), "lint") ||
					!strings.Contains(err.Error(), "zero-delay-cycle") {
					t.Errorf("error should name the lint mode and the diagnostic, got: %v", err)
				}
			})
		}
	}
}

// TestLintOffZeroDelayRingLivelocks is the regression that motivates the
// pre-flight check: with lint off, an optimistic engine chews on the
// same-timestamp oscillation until the context deadline kills it. The
// conservative distributed engine's refusal under lint (instead of
// running the hazard at all) is asserted above; here we prove the hazard
// is real, not hypothetical.
func TestLintOffZeroDelayRingLivelocks(t *testing.T) {
	c := buildZeroDelayRing(t)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	_, err := SimulateContext(ctx, c, Options{
		Engine:  TimeWarp,
		Horizon: 8,
		Workers: 2,
		Lint:    LintOff,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("time-warp with lint off should livelock into the deadline, got err=%v", err)
	}
}

// TestLintDistRejectsBeforeRunning pins down the distributed engine
// specifically: under strict lint SimulateContext returns the analyzer's
// rejection immediately — no workers are spawned, no messages are sent —
// rather than entering the livelock-prone run.
func TestLintDistRejectsBeforeRunning(t *testing.T) {
	c := buildZeroDelayRing(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	res, err := SimulateContext(ctx, c, Options{
		Engine:  DistAsync,
		Horizon: 8,
		Workers: 4,
		Lint:    LintStrict,
	})
	if err == nil {
		t.Fatal("dist accepted a zero-delay ring under strict lint")
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("dist should be refused statically, not time out: %v", err)
	}
	if res != nil {
		t.Errorf("refused run returned a Result: %+v", res)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("static refusal took %v, should be immediate", elapsed)
	}
}

// TestLintStrictAllowsCleanCircuit: lint must not reject legal designs —
// a unit-delay blinker passes strict and simulates normally.
func TestLintStrictAllowsCleanCircuit(t *testing.T) {
	c := buildBlinker(t)
	res, err := Simulate(c, Options{
		Engine:  Sequential,
		Horizon: 40,
		Lint:    LintStrict,
	})
	if err != nil {
		t.Fatalf("strict lint rejected a clean circuit: %v", err)
	}
	if res == nil || res.Stats.Evals == 0 {
		t.Fatalf("simulation did not run: %+v", res)
	}
}

// TestAnalyzeFacade exercises the re-exported analyzer entry point.
func TestAnalyzeFacade(t *testing.T) {
	rep := Analyze(buildZeroDelayRing(t), AnalyzeOptions{Workers: 2})
	if rep.Err(false) == nil {
		t.Fatal("Analyze missed the zero-delay cycle")
	}
	found := false
	for _, d := range rep.Diags {
		if d.Code == "zero-delay-cycle" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no zero-delay-cycle diagnostic in %+v", rep.Diags)
	}
	if rep.Partition == nil || rep.Partition.Workers != 2 {
		t.Fatalf("partition report missing or wrong: %+v", rep.Partition)
	}
}

package machine

import (
	"strings"
	"testing"

	"parsim/internal/analyze"
	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/gen"
)

// allEngines is what auto can pick: the T5 baselines are not modelled.
func allEngines() map[string]bool {
	return map[string]bool{
		"sequential": true, "event-driven": true, "compiled": true,
		"jit": true, "asynchronous": true,
	}
}

// TestPredictCoversEveryEngine: one prediction per engine auto can pick,
// eligible entries sorted first by ascending span.
func TestPredictCoversEveryEngine(t *testing.T) {
	p := analyze.Profile(gen.InverterArray(gen.DefaultInverterArray()))
	preds := Predict(p, PredictOptions{MaxWorkers: 4, CostSpin: 300})
	want := allEngines()
	prevSpan, inEligible := 0.0, true
	for i, pr := range preds {
		if !want[pr.Engine] {
			t.Errorf("unexpected or duplicate engine %q", pr.Engine)
		}
		delete(want, pr.Engine)
		if pr.Eligible {
			if !inEligible {
				t.Errorf("eligible %q ranked after an ineligible entry", pr.Engine)
			}
			if i > 0 && pr.Span < prevSpan {
				t.Errorf("ranking not sorted: %q span %v after span %v", pr.Engine, pr.Span, prevSpan)
			}
			prevSpan = pr.Span
		} else {
			inEligible = false
			if pr.Reason == "" {
				t.Errorf("ineligible %q carries no reason", pr.Engine)
			}
		}
		if pr.Workers < 1 || pr.Workers > 4 {
			t.Errorf("%q predicted %d workers with a budget of 4", pr.Engine, pr.Workers)
		}
	}
	if len(want) > 0 {
		t.Errorf("missing predictions: %v", want)
	}
}

// TestPredictInverterArrayAmortisesLowering: on the fully active inverter
// array the plane core runs every block every tick and is still the
// cheapest engine per tick, but it lowers the circuit once per run, on one
// goroutine. A 128-tick job (the benchmark's horizon) pays that off and
// goes to jit; a one-tick job does not. At 16 workers the per-tick work
// splits 16 ways and the lowering does not, so it takes 512 ticks.
func TestPredictInverterArrayAmortisesLowering(t *testing.T) {
	p := analyze.Profile(gen.InverterArray(gen.DefaultInverterArray()))
	for _, tc := range []struct {
		budget  int
		horizon circuit.Time
		jit     bool
	}{{1, 1, false}, {1, 128, true}, {4, 1, false}, {4, 128, true}, {16, 1, false}, {16, 512, true}} {
		preds := Predict(p, PredictOptions{MaxWorkers: tc.budget, Horizon: tc.horizon, CostSpin: 300})
		if got := preds[0].Engine == "jit"; got != tc.jit {
			t.Errorf("budget %d, horizon %d: %q first, want jit first: %v", tc.budget, tc.horizon, preds[0].Engine, tc.jit)
		}
	}
}

// TestPredictSparseCircuitAvoidsAsyncSerialisation: at one worker the
// asynchronous engine costs more per event than event-driven does on
// every paper circuit (measured, one worker: 1.19x on the gate-level
// multiplier, 6.4x on the microprocessor), and its concentrated fanout
// (wide broadcast nodes) adds to that; the model must put event-driven
// first on both.
func TestPredictSparseCircuitAvoidsAsyncSerialisation(t *testing.T) {
	for _, build := range []func() *analyze.CircuitProfile{
		func() *analyze.CircuitProfile { return analyze.Profile(gen.GateMultiplier(gen.DefaultMultiplier())) },
		func() *analyze.CircuitProfile { return analyze.Profile(gen.CPU(gen.DefaultCPU())) },
	} {
		p := build()
		preds := Predict(p, PredictOptions{MaxWorkers: 1, CostSpin: 300})
		if preds[0].Engine != "event-driven" {
			t.Errorf("%s at one worker: want event-driven first, got %q (edge fanout %v)",
				p.Circuit, preds[0].Engine, p.EdgeFanout)
		}
	}
}

// TestPredictNonUnitDelayGatesCompiled: compiled and plane-core rank-order
// evaluation diverges from event timing on non-unit-delay circuits, so
// both must be marked ineligible with a reason.
func TestPredictNonUnitDelayGatesCompiled(t *testing.T) {
	p := analyze.Profile(gen.FuncMultiplier(gen.DefaultMultiplier()))
	if p.UnitDelay {
		t.Fatal("functional multiplier should carry block delays > 1")
	}
	preds := Predict(p, PredictOptions{MaxWorkers: 4})
	seen := 0
	for _, pr := range preds {
		if pr.Engine == "compiled" || pr.Engine == "jit" {
			seen++
			if pr.Eligible {
				t.Errorf("%q eligible on a non-unit-delay circuit", pr.Engine)
			}
			if !strings.Contains(pr.Reason, "unit") {
				t.Errorf("%q reason does not mention unit delays: %q", pr.Engine, pr.Reason)
			}
		}
	}
	if seen != 2 {
		t.Fatalf("compiled/jit predictions missing (%d found)", seen)
	}
}

// TestPredictJITGainsFromSecondWorker: jit crosses one barrier per tick and
// its compiler balances the split itself, so on the structured circuits a
// second worker must be predicted to help, with no partition strategy.
func TestPredictJITGainsFromSecondWorker(t *testing.T) {
	for _, c := range []*circuit.Circuit{
		gen.GateMultiplier(gen.DefaultMultiplier()),
		gen.CPU(gen.DefaultCPU()),
	} {
		p := analyze.Profile(c)
		jit := func(budget int) engine.Choice {
			for _, pr := range Predict(p, PredictOptions{MaxWorkers: budget}) {
				if pr.Engine == "jit" {
					return pr
				}
			}
			t.Fatal("no jit prediction")
			return engine.Choice{}
		}
		one, two := jit(1), jit(2)
		if two.Workers != 2 || two.Span >= one.Span {
			t.Errorf("%s: jit span %v at %d workers (budget 2), want below the one-worker span %v",
				c.Name, two.Span, two.Workers, one.Span)
		}
		if two.Strategy != "" {
			t.Errorf("%s: jit prediction names strategy %q; its compiler owns the split", c.Name, two.Strategy)
		}
	}
}

// TestPredictLanesAmortiseVector: a batched job divides the plane core's
// pass over its lanes; at 64 lanes the per-job span must drop well below
// the scalar prediction.
func TestPredictLanesAmortiseVector(t *testing.T) {
	p := analyze.Profile(gen.InverterArray(gen.DefaultInverterArray()))
	span := func(lanes int) float64 {
		for _, pr := range Predict(p, PredictOptions{MaxWorkers: 1, Lanes: lanes}) {
			if pr.Engine == "jit" {
				if pr.Lanes != max(1, lanes) {
					t.Fatalf("jit prediction carries %d lanes, want %d", pr.Lanes, max(1, lanes))
				}
				return pr.Span
			}
		}
		t.Fatal("no jit prediction")
		return 0
	}
	scalar, batched := span(0), span(64)
	if batched >= scalar/8 {
		t.Errorf("64 lanes predicted span %v, want << scalar %v", batched, scalar)
	}
}

// TestConfidenceBounds: confidence stays in [0, 1] and degenerate
// rankings score 1.
func TestConfidenceBounds(t *testing.T) {
	p := analyze.Profile(gen.InverterArray(gen.DefaultInverterArray()))
	preds := Predict(p, PredictOptions{MaxWorkers: 4, CostSpin: 300})
	if c := Confidence(preds); c < 0 || c > 1 {
		t.Errorf("confidence %v outside [0, 1]", c)
	}
	if c := Confidence(preds[:1]); c != 1 {
		t.Errorf("single-entry ranking should score 1, got %v", c)
	}
	if c := Confidence(nil); c != 1 {
		t.Errorf("empty ranking should score 1, got %v", c)
	}
}

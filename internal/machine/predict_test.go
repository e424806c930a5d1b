package machine

import (
	"strings"
	"testing"

	"parsim/internal/analyze"
	"parsim/internal/circuit"
	"parsim/internal/gen"
)

func allEngines() map[string]bool {
	return map[string]bool{
		"sequential": true, "event-driven": true, "compiled": true,
		"jit": true, "asynchronous": true,
		"chandy-misra": true, "time-warp": true, "distributed-async": true,
	}
}

// TestPredictCoversEveryEngine: one prediction per engine, eligible
// entries sorted first by ascending span.
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

// TestPredictInverterArrayPrefersAsync pins the paper's central result:
// on the high-activity, fanout-flat inverter array the asynchronous
// algorithm wins (fig. 4), and the prediction agrees at any budget.
func TestPredictInverterArrayPrefersAsync(t *testing.T) {
	p := analyze.Profile(gen.InverterArray(gen.DefaultInverterArray()))
	for _, budget := range []int{1, 4, 16} {
		preds := Predict(p, PredictOptions{MaxWorkers: budget, CostSpin: 300})
		if preds[0].Engine != "asynchronous" {
			t.Errorf("budget %d: want asynchronous first, got %q", budget, preds[0].Engine)
		}
	}
}

// TestPredictSparseCircuitAvoidsAsyncSerialisation: the gate-level
// multiplier and the microprocessor have concentrated fanout (wide
// broadcast nodes), which serialises the lock-per-node asynchronous
// family; at one worker the measured walls put event-driven ahead and
// the contention-calibrated model must agree.
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
		jit := func(budget int) Prediction {
			for _, pr := range Predict(p, PredictOptions{MaxWorkers: budget}) {
				if pr.Engine == "jit" {
					return pr
				}
			}
			t.Fatal("no jit prediction")
			return Prediction{}
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

package analyze_test

import (
	"context"
	"math"
	"testing"

	"parsim/internal/analyze"
	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/gen"

	_ "parsim/internal/seq"
	_ "parsim/internal/vector"
)

// measuredPerTick runs the named engine at one worker and returns its
// evaluations per tick. Both engines used here count deterministically.
func measuredPerTick(t *testing.T, name string, c *circuit.Circuit, horizon circuit.Time) float64 {
	t.Helper()
	rep, err := engine.Run(context.Background(), c.Clone(), engine.Config{Engine: name, Workers: 1, Horizon: horizon})
	if err != nil {
		t.Fatalf("%s on %s: %v", name, c.Name, err)
	}
	return float64(rep.Stats.Evals) / float64(horizon)
}

// TestActivityEstimateMatchesSequential: every inverter of the array flips
// on every input change, so the static activity estimate must come within
// 10 % of the evaluations the reference engine makes.
func TestActivityEstimateMatchesSequential(t *testing.T) {
	c := gen.InverterArray(gen.DefaultInverterArray())
	got := analyze.Profile(c).EvalsPerTick
	want := measuredPerTick(t, "sequential", c, 128)
	if math.Abs(got-want) > 0.10*want {
		t.Errorf("EvalsPerTick %.1f, sequential measures %.1f per tick (> 10 %% apart)", got, want)
	}
}

// TestBlockEstimateMatchesPlaneCore: the block estimate prices the plane
// core's selective trace, so it must come within 25 % of the element
// evaluations the core makes, on a sparse circuit and on a fully active
// one.
func TestBlockEstimateMatchesPlaneCore(t *testing.T) {
	for _, tc := range []struct {
		c       *circuit.Circuit
		horizon circuit.Time
	}{
		{gen.GateMultiplier(gen.DefaultMultiplier()), 512},
		{gen.InverterArray(gen.DefaultInverterArray()), 128},
	} {
		got := analyze.Profile(tc.c).BlockEvalsPerTick
		want := measuredPerTick(t, "jit", tc.c, tc.horizon)
		if math.Abs(got-want) > 0.25*want {
			t.Errorf("%s: BlockEvalsPerTick %.1f, the plane core measures %.1f per tick (> 25 %% apart)",
				tc.c.Name, got, want)
		}
	}
}

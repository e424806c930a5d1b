package harness

import (
	"context"
	"fmt"
	"time"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/gen"

	// The batched engine registers itself like the scalar simulators.
	_ "parsim/internal/vector"
)

// v1 — batched compiled-mode throughput: the levelized plane core (timed
// here under its vector name; jit is the same core) packs up to 64
// seed-shifted stimulus vectors into the two planes of a machine word, so
// one pass over the levelized schedule advances every vector at once. The
// experiment sweeps the lane count on the two-valued inverter array and
// reports per-vector speed-up over the scalar compiled engine: (scalar
// wall x lanes) / batched wall, both at one worker so the ratio isolates
// word-level parallelism from thread-level parallelism.
//
// v1 is not part of IDs(): it measures real wall-clock regardless of the
// configured mode (there is no virtual-machine model of word-level
// parallelism), so it is regenerated on demand — `make bench-vector`
// writes the snapshot the repository tracks as BENCH_vector.json.
func v1(cfg Config) *Figure {
	f := &Figure{
		ID:     "v1",
		Title:  "Batched compiled-mode per-vector speed-up vs scalar compiled, inverter array",
		XLabel: "lanes",
		YLabel: "per-vector speed-up",
	}
	horizon := circuit.Time(4096)
	if cfg.Quick {
		horizon = 512
	}
	c := gen.InverterArray(gen.DefaultInverterArray())

	// Wall-clock of one run, best of realReps; CostSpin stays zero so the
	// measurement is raw kernel throughput, not synthetic evaluation work.
	wall := func(alg string, lanes int) float64 {
		span, _ := realBest(func() (float64, float64) {
			rep, err := engine.Run(context.Background(), c, engine.Config{
				Engine: alg, Workers: 1, Horizon: horizon, Lanes: lanes,
			})
			if err != nil {
				panic("harness: " + alg + ": " + err.Error())
			}
			return float64(rep.Stats.Wall), rep.Stats.Utilization()
		})
		return span
	}

	scalar := wall("compiled", 0)
	speedup := Series{Name: "per-vector-speedup"}
	ratio := Series{Name: "batch-wall-ratio"} // batched wall / scalar wall
	for _, lanes := range []int{1, 8, 16, 32, 64} {
		w := wall("vector", lanes)
		sp, r := 0.0, 0.0
		if w > 0 {
			sp = scalar * float64(lanes) / w
		}
		if scalar > 0 {
			r = w / scalar
		}
		speedup.X = append(speedup.X, float64(lanes))
		speedup.Y = append(speedup.Y, sp)
		ratio.X = append(ratio.X, float64(lanes))
		ratio.Y = append(ratio.Y, r)
		f.Notes = append(f.Notes, fmt.Sprintf(
			"%2d lanes: %.2fms wall, %.1fx per-vector (batch costs %.2fx one scalar run)",
			lanes, w/1e6, sp, r))
	}
	f.Series = append(f.Series, speedup, ratio)
	f.Notes = append(f.Notes,
		fmt.Sprintf("scalar compiled baseline: %.2fms wall for one stimulus vector", scalar/1e6),
		"target: >=8x per-vector throughput at 64 lanes on the two-valued inverter array",
		"both engines run one worker; the ratio isolates word-level parallelism")
	return f
}

// f1 — concurrent stuck-at fault simulation: coverage, collapse rate,
// pass count and grading throughput on the four paper circuits. Lane 0
// carries the good machine and every other lane injects one fault from
// the analyzer's collapsed list, so one wide-plane pass grades Lanes-1
// faults against the same stimulus. The coverage/collapse/pass series are
// deterministic (fixed stimulus seeds, fixed fault lists); only the
// faults-per-second series and the wall notes carry real time.
func f1(cfg Config) *Figure {
	f := &Figure{
		ID:     "f1",
		Title:  "Concurrent stuck-at fault simulation on the paper circuits",
		XLabel: "circuit",
		YLabel: "fraction",
	}
	type row struct {
		name    string
		build   func() *circuit.Circuit
		horizon circuit.Time
		lanes   int
	}
	// Fault grading needs stimulus variety more than settling time, so the
	// multipliers run with a shortened input period — the arrays settle
	// well inside each period — and the multiplier fault lists (thousands
	// of sites, nothing collapses in a NAND array) get 1024-lane planes so
	// the pass count stays small.
	multCfg := gen.DefaultMultiplier()
	multCfg.InPeriod = 64
	funcCfg := gen.DefaultMultiplier()
	funcCfg.InPeriod = 64
	cpuCfg := gen.DefaultCPU()
	multHorizon, cpuCycles := circuit.Time(2048), 24
	arrHorizon := circuit.Time(256)
	if cfg.Quick {
		multHorizon, arrHorizon, cpuCycles = 1024, 64, 8
	}
	rows := []row{
		{"inverter-array", func() *circuit.Circuit {
			return gen.InverterArray(gen.DefaultInverterArray())
		}, arrHorizon, 64},
		{"mult16-gate", func() *circuit.Circuit {
			return gen.GateMultiplier(multCfg)
		}, multHorizon, 1024},
		{"mult16-func", func() *circuit.Circuit {
			return gen.FuncMultiplier(funcCfg)
		}, multHorizon, 1024},
		{"microprocessor", func() *circuit.Circuit {
			return gen.CPU(cpuCfg)
		}, gen.CPUHorizon(cpuCfg, cpuCycles), 1024},
	}
	coverage := Series{Name: "coverage"}
	collapse := Series{Name: "collapse-rate"}
	passes := Series{Name: "passes"}
	rate := Series{Name: "faults-per-second"}
	for i, r := range rows {
		c := r.build()
		start := time.Now()
		rep, err := engine.Run(context.Background(), c, engine.Config{
			Engine: "vector", Workers: 1, Horizon: r.horizon, Lanes: r.lanes, FaultSim: true,
		})
		if err != nil {
			panic("harness: fault sim: " + err.Error())
		}
		wall := time.Since(start)
		cov := rep.FaultCoverage
		sites := cov.Total + cov.Collapsed
		x := float64(i)
		coverage.X = append(coverage.X, x)
		coverage.Y = append(coverage.Y, cov.Coverage())
		collapse.X = append(collapse.X, x)
		collapse.Y = append(collapse.Y, float64(cov.Collapsed)/float64(sites))
		passes.X = append(passes.X, x)
		passes.Y = append(passes.Y, float64(cov.Passes))
		rate.X = append(rate.X, x)
		rate.Y = append(rate.Y, float64(cov.Total)/wall.Seconds())
		f.Notes = append(f.Notes, fmt.Sprintf(
			"%s: %s — %d stuck-at sites collapsed to %d, graded in %.0fms at %d lanes (%.0f faults/s)",
			r.name, cov.String(), sites, cov.Total,
			float64(wall)/1e6, r.lanes, float64(cov.Total)/wall.Seconds()))
	}
	f.Series = append(f.Series, coverage, collapse, passes, rate)
	f.Notes = append(f.Notes,
		"lane 0 is the good machine; a fault counts detected when any observed sink",
		"diverges from lane 0 before the horizon; acceptance: >=90% coverage on at",
		"least one paper circuit (sequential depth limits the CPU's reachable sites)")
	return f
}

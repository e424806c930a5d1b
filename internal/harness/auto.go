package harness

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"parsim/internal/analyze"
	"parsim/internal/engine"

	// The selection engine registers itself like the simulators it picks
	// between.
	_ "parsim/internal/auto"
)

// a1 — engine=auto vs best-of-eight: for each paper circuit, measure every
// scalar engine across a worker sweep, then run engine=auto once with the
// full worker budget and compare its end-to-end wall (profile + cost model
// + the selected engine's run) against the best measured combination. The
// series reports best wall / auto wall per circuit; >= 0.9 means the static
// selection gives up at most 10% over an oracle that tried everything.
//
// Methodology: on circuits with non-unit delays (the functional multiplier's
// block delay, the microprocessor) the compiled engine and the plane core
// (vector, jit) are excluded from "best" — their rank-order evaluation
// computes a different simulation than event timing, so their walls are not
// comparable results.
// The cost model marks them ineligible on the same criterion, so auto never
// picks what the oracle is not allowed to count.
//
// Like v1/v2/f1, a1 is not part of IDs(): it always measures real
// wall-clock, so the default all-experiments model pass skips it and `make
// bench-auto` regenerates the tracked BENCH_auto.json snapshot.
func a1(cfg Config) *Figure {
	f := &Figure{
		ID:     "a1",
		Title:  "engine=auto vs best-of-eight, paper circuits",
		XLabel: "circuit",
		YLabel: "best wall / auto wall",
	}
	maxW := cfg.MaxP
	if n := runtime.NumCPU(); maxW > n {
		maxW = n
	}
	if maxW < 1 {
		maxW = 1
	}
	var sweep []int
	for _, w := range []int{1, 2, 4} {
		if w <= maxW {
			sweep = append(sweep, w)
		}
	}
	budget := sweep[len(sweep)-1]

	var engines []string
	for _, name := range engine.Names() {
		if name != "auto" {
			engines = append(engines, name)
		}
	}

	benches := cfg.benches()
	order := []string{"inverter-array", "mult16-gate", "mult16-func", "microprocessor"}
	ratios := Series{Name: "auto-vs-best"}
	worst := math.Inf(1)
	for i, name := range order {
		b := benches[name]
		c := b.build()
		unitDelay := analyze.Profile(c).UnitDelay

		bestWall := math.Inf(1)
		bestEng, bestW := "", 0
		for _, eng := range engines {
			if !unitDelay && (eng == "compiled" || eng == "vector" || eng == "jit") {
				continue
			}
			ws := sweep
			if eng == "sequential" {
				ws = []int{1}
			}
			run := cfg.realEngine(eng, c, b.horizon, nil)
			for _, w := range ws {
				wall, _ := run(w)
				if wall < bestWall {
					bestWall, bestEng, bestW = wall, eng, w
				}
			}
		}

		// One true end-to-end run: profiling and prediction are inside the
		// measured wall, so the ratio charges auto for its own overhead.
		autoWall := 0.0
		var sel *engine.Selection
		for r := 0; r < realReps; r++ {
			rep, err := engine.Run(context.Background(), "auto", c, engine.Config{
				Workers: budget, Horizon: b.horizon, CostSpin: cfg.SpinScale,
			})
			if err != nil {
				panic("harness: auto: " + err.Error())
			}
			if w := float64(rep.Run.Wall); r == 0 || w < autoWall {
				autoWall = w
			}
			sel = rep.Selected
		}

		ratio := 0.0
		if autoWall > 0 {
			ratio = bestWall / autoWall
		}
		if ratio < worst {
			worst = ratio
		}
		ratios.X = append(ratios.X, float64(i+1))
		ratios.Y = append(ratios.Y, ratio)
		f.Notes = append(f.Notes, fmt.Sprintf(
			"%d=%s: auto picked %s x%d (confidence %.2f) %.2fms; best measured %s x%d %.2fms; ratio %.2f",
			i+1, name, sel.Engine, sel.Workers, sel.Confidence, autoWall/1e6,
			bestEng, bestW, bestWall/1e6, ratio))
		if !unitDelay {
			f.Notes = append(f.Notes, fmt.Sprintf(
				"%d=%s: compiled/vector/jit excluded from best (non-unit delays diverge from event timing)",
				i+1, name))
		}
	}
	f.Series = append(f.Series, ratios)
	f.Notes = append(f.Notes,
		fmt.Sprintf("worker sweep %v, auto budget %d, spin %d, best of %d reps", sweep, budget, cfg.SpinScale, realReps),
		fmt.Sprintf("acceptance: ratio >= 0.9 on every circuit (worst %.2f)", worst))
	return f
}

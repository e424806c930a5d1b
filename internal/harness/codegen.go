package harness

import (
	"context"
	"fmt"
	"runtime"

	"parsim/internal/engine"
)

// j1 — codegen vs compiled wall-clock: the plane core (timed here under its
// jit name, one lane; v1/v2/f1 time the same core under vector) lowers the
// levelized schedule into fused batch loops over struct-of-arrays slabs,
// replacing the compiled engine's per-element closure walk. The experiment measures
// raw kernel throughput (CostSpin 0, scalar lanes) on the two structured
// paper circuits — the gate-level multiplier and the microprocessor — at
// 1, 2 and 4 workers, and reports the jit/compiled speed-up per worker
// count. Acceptance: >= 1.5x over compiled at one worker on both circuits,
// and >= 1.0x at every worker count the host has cores for (jit crosses one
// barrier per step, like compiled, so it must not lose by adding workers).
//
// Like v1/v2/f1/a1/c1, j1 is not part of IDs(): it always measures real
// wall-clock, so `make bench-jit` regenerates the tracked BENCH_jit.json
// snapshot and `make bench-diff` re-measures it within a loose tolerance.
func j1(cfg Config) *Figure {
	f := &Figure{
		ID:     "j1",
		Title:  "Codegen (jit) speed-up over the compiled engine, structured circuits",
		XLabel: "workers",
		YLabel: "jit speed-up vs compiled, same workers",
	}
	benches := cfg.benches()
	workerSweep := []int{1, 2, 4}

	wall := func(alg string, b bench, workers int) float64 {
		span, _ := realBest(func() (float64, float64) {
			rep, err := engine.Run(context.Background(), alg, b.build(), engine.Config{
				Workers: workers, Horizon: b.horizon,
			})
			if err != nil {
				panic("harness: " + alg + ": " + err.Error())
			}
			return float64(rep.Run.Wall), rep.Run.Utilization()
		})
		return span
	}

	for _, name := range []string{"mult16-gate", "microprocessor"} {
		b := benches[name]
		s := Series{Name: name}
		for _, workers := range workerSweep {
			cw := wall("compiled", b, workers)
			jw := wall("jit", b, workers)
			sp := 0.0
			if jw > 0 {
				sp = cw / jw
			}
			s.X = append(s.X, float64(workers))
			s.Y = append(s.Y, sp)
			f.Notes = append(f.Notes, fmt.Sprintf(
				"%s x %d workers: compiled %.2fms, jit %.2fms — %.2fx",
				name, workers, cw/1e6, jw/1e6, sp))
		}
		f.Series = append(f.Series, s)
	}
	f.Notes = append(f.Notes,
		fmt.Sprintf("host has %d cores; worker counts above that oversubscribe it", runtime.NumCPU()),
		"CostSpin 0, one stimulus lane: the ratio is raw schedule-walk throughput,",
		"fused batch loops + SoA slabs vs per-element closures over plane structs",
		"acceptance: >= 1.5x compiled at one worker, >= 1.0x at every worker count the host has cores for")
	return f
}

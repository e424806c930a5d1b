package harness

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"parsim/internal/checkpoint"
	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/gen"
)

// c1 — checkpointing overhead: the compiled engine runs the four paper
// circuits twice, once plain and once checkpointing at the default capture
// interval and write gap, and the figure reports the run-time ratio in
// process CPU time (see `one` below for why not wall clock). The
// acceptance criterion is that checkpointing at the defaults costs <=5% on
// every circuit — cheap enough to leave on for any long run.
//
// Like v1/f1, c1 always measures real executions; `make bench-ckpt`
// regenerates the tracked BENCH_ckpt.json snapshot.
func c1(cfg Config) *Figure {
	f := &Figure{
		ID:     "c1",
		Title:  "Checkpointing overhead, compiled engine, default snapshot interval",
		XLabel: "circuit",
		YLabel: "CPU-time ratio (checkpointed / plain)",
	}
	// Horizons long enough to cross the snapshot interval several times;
	// the benches() horizons tuned for speed-up curves are too short for
	// even one save at the default interval.
	mult := gen.DefaultMultiplier()
	cpu := gen.DefaultCPU()
	gateHorizon := circuit.Time(4096)
	funcHorizon := circuit.Time(16384) // the functional model steps fast; more steps keep the run measurable
	arrHorizon := circuit.Time(16384)
	cpuCycles := 60
	if cfg.Quick {
		gateHorizon, funcHorizon, arrHorizon, cpuCycles = 1024, 1024, 1024, 20
	}
	rows := []bench{
		{"inverter-array", func() *circuit.Circuit {
			return gen.InverterArray(gen.DefaultInverterArray())
		}, arrHorizon},
		{"mult16-gate", func() *circuit.Circuit { return gen.GateMultiplier(mult) }, gateHorizon},
		{"mult16-func", func() *circuit.Circuit { return gen.FuncMultiplier(mult) }, funcHorizon},
		{"microprocessor", func() *circuit.Circuit { return gen.CPU(cpu) }, gen.CPUHorizon(cpu, cpuCycles)},
	}

	dir, err := os.MkdirTemp("", "parsim-ckpt-bench-")
	if err != nil {
		panic("harness: ckpt bench: " + err.Error())
	}
	defer os.RemoveAll(dir)

	// one measures a single run in process CPU time (user + system), falling
	// back to wall clock where rusage is unavailable. CPU time bills every
	// real checkpoint cost — capture, encode, write syscalls, fsync kernel
	// work, the extra GC — but not the neighbouring load that dominates
	// wall-clock variance on a shared host.
	one := func(c *circuit.Circuit, horizon circuit.Time, ckpt string, saves *int64) float64 {
		ec := engine.Config{Workers: 1, Horizon: horizon}
		if ckpt != "" {
			var n int64
			// The writer goroutine is joined before Run returns, so n is
			// settled by the time it is read back.
			ec.Checkpoint = engine.CheckpointSpec{
				Path:   ckpt,
				OnSave: func(step int64) { n++ },
			}
			defer func() { *saves = n }()
		}
		// A forced collection outside the timed region keeps one run's
		// garbage from billing the next run's measurement.
		runtime.GC()
		cpu0 := cpuTime()
		ec.Engine = "compiled"
		rep, err := engine.Run(context.Background(), c, ec)
		if err != nil {
			panic("harness: compiled: " + err.Error())
		}
		if d := cpuTime() - cpu0; d > 0 {
			return float64(d)
		}
		return float64(rep.Stats.Wall)
	}

	ratio := Series{Name: "wall-ratio"}
	worst := 0.0
	for i, r := range rows {
		c := r.build()
		// The two configurations are sampled in alternating order over the
		// same window and the figure reports the ratio of the CPU-time
		// sums, so any residual drift (thermal, frequency, accounting)
		// lands on both sums almost equally and cancels.
		plain, ckpt := 0.0, 0.0
		var saves int64
		// Unmeasured warm-up pair: the first runs of a circuit pay page
		// faults and heap growth that would otherwise bias whichever
		// configuration goes first.
		one(c, r.horizon, "", nil)
		one(c, r.horizon, filepath.Join(dir, r.name+".ckpt"), &saves)
		for rep := 0; rep < 2*realReps+4; rep++ {
			if rep%2 == 0 {
				plain += one(c, r.horizon, "", nil)
				ckpt += one(c, r.horizon, filepath.Join(dir, r.name+".ckpt"), &saves)
			} else {
				ckpt += one(c, r.horizon, filepath.Join(dir, r.name+".ckpt"), &saves)
				plain += one(c, r.horizon, "", nil)
			}
		}
		rel := 0.0
		if plain > 0 {
			rel = ckpt / plain
		}
		if rel > worst {
			worst = rel
		}
		ratio.X = append(ratio.X, float64(i))
		ratio.Y = append(ratio.Y, rel)
		reps := float64(2*realReps + 4)
		f.Notes = append(f.Notes, fmt.Sprintf(
			"%s: plain %.2fms, checkpointed %.2fms (%d snapshots last run) — %.3fx",
			r.name, plain/1e6/reps, ckpt/1e6/reps, saves, rel))
	}
	f.Series = append(f.Series, ratio)
	f.Notes = append(f.Notes,
		fmt.Sprintf("capture interval: every %d steps; durable writes throttled to one per %v, atomic temp+fsync+rename each", engine.DefaultCheckpointEvery, checkpoint.DefaultGap),
		fmt.Sprintf("worst circuit: %.3fx — acceptance: <=1.05x on every paper circuit", worst))
	return f
}

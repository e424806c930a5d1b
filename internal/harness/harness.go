// Package harness regenerates every figure and quantitative claim from the
// paper's evaluation. Each experiment can run in two modes:
//
//   - Model: the virtual 16-processor machine (package machine) replays the
//     algorithms over traces collected from the sequential simulator. This
//     reproduces the paper's full 1-16 processor curves deterministically on
//     any host.
//   - Real: the actual parallel simulators run on real goroutines and the
//     harness reports measured wall-clock speed-ups. Curves are bounded by
//     the host's core count.
package harness

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/gen"
	"parsim/internal/machine"
	"parsim/internal/partition"
	"parsim/internal/seq"

	// Populate the engine registry (the harness cannot import the parsim
	// facade, which itself imports this package).
	_ "parsim/internal/core"
	_ "parsim/internal/dist"
	_ "parsim/internal/parevent"
	_ "parsim/internal/timewarp"
)

// Mode selects how an experiment is executed.
type Mode int

// Execution modes.
const (
	Model Mode = iota // virtual multiprocessor, deterministic
	Real              // real goroutines, wall-clock timing
)

// String returns the mode name.
func (m Mode) String() string {
	if m == Real {
		return "real"
	}
	return "model"
}

// Config parameterises experiment generation.
type Config struct {
	Mode  Mode
	MaxP  int  // highest processor count on the curves
	Quick bool // shrink horizons (used by tests)
	// SpinScale adds synthetic per-evaluation work in Real mode so that
	// evaluation cost dominates goroutine overhead, as interpreted
	// evaluation routines did on the Multimax.
	SpinScale int64
	Cost      machine.CostModel
}

// DefaultConfig returns the standard configuration for the given mode.
func DefaultConfig(mode Mode) Config {
	cfg := Config{
		Mode:      mode,
		MaxP:      16,
		SpinScale: 300,
		Cost:      machine.DefaultCostModel(),
	}
	if mode == Real {
		cfg.MaxP = runtime.NumCPU()
	}
	return cfg
}

// Series is one labelled curve.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is one regenerated experiment.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// IDs returns every experiment identifier, in paper order. The first nine
// are the paper's figures and quantitative claims; t5 quantifies the
// related-work baselines the paper argues against.
func IDs() []string {
	return []string{"fig1", "fig2", "fig3", "fig4", "fig5", "t1", "t2", "t3", "t4", "t5"}
}

// Generate regenerates one experiment by ID.
func Generate(id string, cfg Config) (*Figure, error) {
	if cfg.MaxP < 1 {
		cfg.MaxP = 1
	}
	switch strings.ToLower(id) {
	case "fig1":
		return fig1(cfg), nil
	case "fig2":
		return fig2(cfg), nil
	case "fig3":
		return fig3(cfg), nil
	case "fig4":
		return fig4(cfg), nil
	case "fig5":
		return fig5(cfg), nil
	case "t1":
		return t1(cfg), nil
	case "t2":
		return t2(cfg), nil
	case "t3":
		return t3(cfg), nil
	case "t4":
		return t4(cfg), nil
	case "t5":
		return t5(cfg), nil
	case "v1":
		// Not in IDs(): v1, f1 and c1 execute the real engines whatever the
		// configured mode (there is no virtual-machine model of word-level
		// parallelism, fault grading or snapshot writes), so the default
		// all-experiments model pass skips them. v1 is the batched
		// throughput gate (`make bench-vector`, BENCH_vector.json).
		return v1(cfg), nil
	case "f1":
		// Fault-simulation coverage behind BENCH_fault.json (`make
		// bench-fault`); deterministic series, real wall in the notes.
		return f1(cfg), nil
	case "c1":
		// Checkpointing overhead on the paper circuits (`make bench-ckpt`
		// writes BENCH_ckpt.json).
		return c1(cfg), nil
	}
	return nil, fmt.Errorf("harness: unknown experiment %q (have %s, v1, f1, c1)", id, strings.Join(IDs(), ", "))
}

// procSweep returns the processor counts for curves: 1..8 then evens.
func procSweep(maxP int) []int {
	var ps []int
	for p := 1; p <= maxP; p++ {
		if p <= 8 || p%2 == 0 {
			ps = append(ps, p)
		}
	}
	return ps
}

// ---- benchmark circuits ----

type bench struct {
	name    string
	build   func() *circuit.Circuit
	horizon circuit.Time
}

func (cfg *Config) benches() map[string]bench {
	mult := gen.DefaultMultiplier()
	periods := circuit.Time(4)
	arrayHorizon := circuit.Time(192)
	cpuCycles := 40
	if cfg.Quick {
		periods = 2
		arrayHorizon = 96
		cpuCycles = 12
	}
	cpu := gen.DefaultCPU()
	return map[string]bench{
		"mult16-gate": {
			name:    "mult16-gate",
			build:   func() *circuit.Circuit { return gen.GateMultiplier(mult) },
			horizon: mult.InPeriod * periods,
		},
		"mult16-func": {
			name:    "mult16-func",
			build:   func() *circuit.Circuit { return gen.FuncMultiplier(mult) },
			horizon: mult.InPeriod * periods * 2,
		},
		"inverter-array": {
			name:    "inverter-array",
			build:   func() *circuit.Circuit { return gen.InverterArray(gen.DefaultInverterArray()) },
			horizon: arrayHorizon,
		},
		"microprocessor": {
			name:    "microprocessor",
			build:   func() *circuit.Circuit { return gen.CPU(cpu) },
			horizon: gen.CPUHorizon(cpu, cpuCycles),
		},
	}
}

// ---- shared speed-up machinery ----

// algo abstracts "run this algorithm at P processors and give me a span".
// Model mode returns virtual spans; Real mode wall-clock nanoseconds.
type algo struct {
	name string
	run  func(p int) (span float64, util float64)
}

// speedupSeries evaluates one algorithm across the processor sweep.
func speedupSeries(name string, ps []int, run func(p int) (float64, float64)) Series {
	s := Series{Name: name}
	base, _ := run(1)
	for _, p := range ps {
		span, _ := run(p)
		sp := 0.0
		if span > 0 {
			sp = base / span
		}
		s.X = append(s.X, float64(p))
		s.Y = append(s.Y, sp)
	}
	return s
}

// modelEventDriven builds the model-mode runner for a circuit.
func (cfg *Config) modelEventDriven(c *circuit.Circuit, steps []seq.StepRecord, mode machine.EDMode) func(int) (float64, float64) {
	return func(p int) (float64, float64) {
		m := machine.EventDriven(c, steps, p, mode, cfg.Cost)
		return float64(m.Span), m.Utilization()
	}
}

func (cfg *Config) modelAsync(c *circuit.Circuit, g *seq.TaskGraph) func(int) (float64, float64) {
	return func(p int) (float64, float64) {
		m := machine.Async(c, g, p, cfg.Cost)
		return float64(m.Span), m.Utilization()
	}
}

func (cfg *Config) modelCompiled(c *circuit.Circuit, steps int64) func(int) (float64, float64) {
	return func(p int) (float64, float64) {
		m := machine.Compiled(c, steps, p, partition.RoundRobin, cfg.Cost)
		return float64(m.Span), m.Utilization()
	}
}

// realRun medians wall-clock over a few repetitions.
const realReps = 3

func realBest(f func() (float64, float64)) (float64, float64) {
	bestSpan, bestUtil := 0.0, 0.0
	for i := 0; i < realReps; i++ {
		span, util := f()
		if i == 0 || span < bestSpan {
			bestSpan, bestUtil = span, util
		}
	}
	return bestSpan, bestUtil
}

// realEngine builds a Real-mode runner for any registered algorithm: one
// generic path through the engine registry instead of a hand-rolled runner
// per simulator. tweak, when non-nil, adjusts the Config (ablation flags).
func (cfg *Config) realEngine(alg string, c *circuit.Circuit, horizon circuit.Time, tweak func(*engine.Config)) func(int) (float64, float64) {
	return func(p int) (float64, float64) {
		return realBest(func() (float64, float64) {
			ec := engine.Config{Workers: p, Horizon: horizon, CostSpin: cfg.SpinScale}
			if tweak != nil {
				tweak(&ec)
			}
			ec.Engine = alg
			rep, err := engine.Run(context.Background(), c, ec)
			if err != nil {
				panic("harness: " + alg + ": " + err.Error())
			}
			return float64(rep.Stats.Wall), rep.Stats.Utilization()
		})
	}
}

// Format renders the figure as an aligned text table with notes.
func (f *Figure) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", strings.ToUpper(f.ID), f.Title)
	if len(f.Series) > 0 {
		// Header.
		fmt.Fprintf(&b, "  %-8s", f.XLabel)
		for _, s := range f.Series {
			fmt.Fprintf(&b, "  %14s", s.Name)
		}
		fmt.Fprintln(&b)
		// Merge X values (series may share them; use the first series' X).
		xs := map[float64]bool{}
		for _, s := range f.Series {
			for _, x := range s.X {
				xs[x] = true
			}
		}
		sorted := make([]float64, 0, len(xs))
		for x := range xs {
			sorted = append(sorted, x)
		}
		sort.Float64s(sorted)
		for _, x := range sorted {
			fmt.Fprintf(&b, "  %-8.6g", x)
			for _, s := range f.Series {
				y, ok := lookup(s, x)
				if ok {
					fmt.Fprintf(&b, "  %14.2f", y)
				} else {
					fmt.Fprintf(&b, "  %14s", "-")
				}
			}
			fmt.Fprintln(&b)
		}
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

func lookup(s Series, x float64) (float64, bool) {
	for i, sx := range s.X {
		if sx == x {
			return s.Y[i], true
		}
	}
	return 0, false
}

package parsim

// One testing.B benchmark per figure and quantitative claim in the paper's
// evaluation, timing the real parallel simulators on the paper's circuits.
// Worker counts sweep 1..NumCPU; `go run ./cmd/figures -mode model` extends
// the curves to the paper's 16 virtual processors. EXPERIMENTS.md records
// paper-vs-measured for each.

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// workerCounts returns the benchmark sweep: 1, 2, 4, ... up to NumCPU.
func workerCounts() []int {
	var ps []int
	for p := 1; p <= runtime.NumCPU(); p *= 2 {
		ps = append(ps, p)
	}
	return ps
}

// benchSim runs one simulator configuration repeatedly, reporting
// events-per-second as the figure-of-merit (the paper's "pure simulation
// time" for a fixed workload).
func benchSim(b *testing.B, c *Circuit, opts Options) {
	b.Helper()
	var updates int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Simulate(c, opts)
		if err != nil {
			b.Fatal(err)
		}
		updates = res.Stats.NodeUpdates
	}
	b.ReportMetric(float64(updates)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// Figure 1: the synchronous event-driven algorithm on the four benchmark
// circuits.
func BenchmarkFig1EventDriven(b *testing.B) {
	mult := DefaultMultiplier()
	cpu := DefaultCPU()
	circuits := []struct {
		name    string
		c       *Circuit
		horizon Time
	}{
		{"mult16-gate", BenchGateMultiplier(mult), mult.InPeriod * 2},
		{"mult16-func", BenchFuncMultiplier(mult), mult.InPeriod * 4},
		{"inverter-array", BenchInverterArray(DefaultInverterArray()), 128},
		{"microprocessor", BenchCPU(cpu), CPUHorizon(cpu, 16)},
	}
	for _, tc := range circuits {
		for _, p := range workerCounts() {
			b.Run(fmt.Sprintf("%s/P%d", tc.name, p), func(b *testing.B) {
				benchSim(b, tc.c, Options{
					Engine: EventDriven, Workers: p, Horizon: tc.horizon, CostSpin: 100,
				})
			})
		}
	}
}

// Figure 2: event availability controls event-driven scaling.
func BenchmarkFig2EventsPerTick(b *testing.B) {
	for _, active := range []int{32, 16, 8, 4} {
		cfg := DefaultInverterArray()
		cfg.ActiveRows = active
		c := BenchInverterArray(cfg)
		for _, p := range workerCounts() {
			b.Run(fmt.Sprintf("ev%d/P%d", active*16, p), func(b *testing.B) {
				benchSim(b, c, Options{
					Engine: EventDriven, Workers: p, Horizon: 128, CostSpin: 100,
				})
			})
		}
	}
}

// Figure 3: compiled mode evaluates everything every step.
func BenchmarkFig3Compiled(b *testing.B) {
	mult := DefaultMultiplier()
	circuits := []struct {
		name string
		c    *Circuit
	}{
		{"inverter-array", BenchInverterArray(DefaultInverterArray())},
		{"mult16-gate", BenchGateMultiplier(mult)},
		{"mult16-func", BenchFuncMultiplier(mult)},
	}
	for _, tc := range circuits {
		for _, p := range workerCounts() {
			b.Run(fmt.Sprintf("%s/P%d", tc.name, p), func(b *testing.B) {
				benchSim(b, tc.c, Options{
					Engine: Compiled, Workers: p, Horizon: 64, CostSpin: 100,
				})
			})
		}
	}
}

// Figure 4: the asynchronous algorithm on the paper's three circuits.
func BenchmarkFig4Async(b *testing.B) {
	mult := DefaultMultiplier()
	circuits := []struct {
		name    string
		c       *Circuit
		horizon Time
	}{
		{"inverter-array", BenchInverterArray(DefaultInverterArray()), 128},
		{"mult16-gate", BenchGateMultiplier(mult), mult.InPeriod * 2},
		{"mult16-func", BenchFuncMultiplier(mult), mult.InPeriod * 4},
	}
	for _, tc := range circuits {
		for _, p := range workerCounts() {
			b.Run(fmt.Sprintf("%s/P%d", tc.name, p), func(b *testing.B) {
				benchSim(b, tc.c, Options{
					Engine: Async, Workers: p, Horizon: tc.horizon, CostSpin: 100,
				})
			})
		}
	}
}

// Figure 5: head-to-head on the inverter array.
func BenchmarkFig5Comparison(b *testing.B) {
	c := BenchInverterArray(DefaultInverterArray())
	for _, alg := range []Algorithm{EventDriven, Async} {
		for _, p := range workerCounts() {
			b.Run(fmt.Sprintf("%v/P%d", alg, p), func(b *testing.B) {
				benchSim(b, c, Options{
					Engine: alg, Workers: p, Horizon: 128, CostSpin: 100,
				})
			})
		}
	}
}

// T1: uniprocessor asynchronous vs event-driven (paper: async 1-3x faster),
// as the paper states it: one worker each, no cost spin, so the figure is
// what the engines themselves cost per event; allocations are reported
// beside it.
func BenchmarkT1Uniprocessor(b *testing.B) {
	mult := DefaultMultiplier()
	circuits := []struct {
		name    string
		c       *Circuit
		horizon Time
	}{
		{"mult16-gate", BenchGateMultiplier(mult), mult.InPeriod * 2},
		{"inverter-array", BenchInverterArray(DefaultInverterArray()), 128},
	}
	for _, tc := range circuits {
		for _, alg := range []Algorithm{EventDriven, Async} {
			b.Run(fmt.Sprintf("%s/%v", tc.name, alg), func(b *testing.B) {
				b.ReportAllocs()
				benchSim(b, tc.c, Options{Engine: alg, Workers: 1, Horizon: tc.horizon})
			})
		}
	}
}

// T2: the work-distribution ablation (paper: central queue capped at ~2x;
// stealing worth 15-20% utilisation).
func BenchmarkT2Ablation(b *testing.B) {
	c := BenchInverterArray(DefaultInverterArray())
	p := runtime.NumCPU()
	variants := []struct {
		name string
		opts Options
	}{
		{"central", Options{Engine: EventDriven, CentralQueue: true}},
		{"no-steal", Options{Engine: EventDriven, NoSteal: true}},
		{"distributed", Options{Engine: EventDriven}},
	}
	for _, v := range variants {
		opts := v.opts
		opts.Workers = p
		opts.Horizon = 128
		opts.CostSpin = 100
		b.Run(v.name, func(b *testing.B) { benchSim(b, c, opts) })
	}
}

// Extension: the distributed-memory (message-passing) asynchronous variant
// head-to-head with the shared-memory one on the inverter array.
func BenchmarkExtensionDistributed(b *testing.B) {
	c := BenchInverterArray(DefaultInverterArray())
	for _, alg := range []Algorithm{Async, DistAsync} {
		for _, p := range workerCounts() {
			b.Run(fmt.Sprintf("%v/P%d", alg, p), func(b *testing.B) {
				benchSim(b, c, Options{
					Engine: alg, Workers: p, Horizon: 128, CostSpin: 100,
				})
			})
		}
	}
}

// Baseline: the rollback-based optimistic simulator the paper argues
// against, head-to-head with the conservative asynchronous algorithm.
func BenchmarkBaselineTimeWarp(b *testing.B) {
	mult := DefaultMultiplier()
	circuits := []struct {
		name    string
		c       *Circuit
		horizon Time
	}{
		{"inverter-array", BenchInverterArray(DefaultInverterArray()), 128},
		{"mult16-gate", BenchGateMultiplier(mult), mult.InPeriod},
	}
	for _, tc := range circuits {
		for _, alg := range []Algorithm{Async, TimeWarp} {
			b.Run(fmt.Sprintf("%s/%v", tc.name, alg), func(b *testing.B) {
				benchSim(b, tc.c, Options{
					Engine: alg, Workers: runtime.NumCPU(), Horizon: tc.horizon, CostSpin: 100,
				})
			})
		}
	}
}

// T4: the asynchronous algorithm's feedback worst case.
func BenchmarkT4FeedbackChain(b *testing.B) {
	ring := BenchFeedbackChain(31)
	for _, p := range workerCounts() {
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			benchSim(b, ring, Options{
				Engine: Async, Workers: p, Horizon: 2000, CostSpin: 100,
			})
		})
	}
}

// Ablation: clocked-element lookahead on the feedback-heavy CPU (DESIGN.md
// extension; disabling it restores the raw valid-time creep).
func BenchmarkAblationLookahead(b *testing.B) {
	cpu := DefaultCPU()
	c := BenchCPU(cpu)
	horizon := CPUHorizon(cpu, 10)
	for _, v := range []struct {
		name string
		off  bool
	}{{"lookahead", false}, {"no-lookahead", true}} {
		b.Run(v.name, func(b *testing.B) {
			benchSim(b, c, Options{
				Engine: Async, Workers: runtime.NumCPU(), Horizon: horizon,
				NoLookahead: v.off,
			})
		})
	}
	b.Run("gate-lookahead", func(b *testing.B) {
		benchSim(b, c, Options{
			Engine: Async, Workers: runtime.NumCPU(), Horizon: horizon,
			GateLookahead: true,
		})
	})
}

// Supervision overhead: the stall watchdog on vs off on the compiled
// engine — the tightest per-step loop in the repo and therefore the
// worst case for any added supervision cost. BENCH_guard.json records
// the measured delta (required < 2%).
func BenchmarkGuardOverhead(b *testing.B) {
	c := BenchInverterArray(DefaultInverterArray())
	for _, v := range []struct {
		name     string
		watchdog time.Duration
	}{{"watchdog-off", 0}, {"watchdog-1s", time.Second}} {
		b.Run(v.name, func(b *testing.B) {
			benchSim(b, c, Options{
				Engine: Compiled, Workers: runtime.NumCPU(), Horizon: 128,
				Watchdog: v.watchdog,
			})
		})
	}
}

// Ablation: synthetic evaluation cost on vs off — how much of the parallel
// benefit depends on per-element work dominating scheduling overhead.
func BenchmarkAblationSpinScale(b *testing.B) {
	c := BenchInverterArray(DefaultInverterArray())
	for _, spin := range []int64{0, 30, 300} {
		b.Run(fmt.Sprintf("spin%d", spin), func(b *testing.B) {
			benchSim(b, c, Options{
				Engine: Async, Workers: runtime.NumCPU(), Horizon: 128, CostSpin: spin,
			})
		})
	}
}

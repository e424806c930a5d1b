package idle_test

import (
	"context"
	"runtime"
	"testing"

	"parsim/internal/circuit"
	_ "parsim/internal/core"
	"parsim/internal/engine"
	"parsim/internal/gen"
	"parsim/internal/idle"
	_ "parsim/internal/vector"
)

// heap is the live heap after two collections.
func heap() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

func TestIdleBytesMatchHeap(t *testing.T) {
	// What an idle entry counts as pinned must be what dropping it frees,
	// within 25 %: the plane core's machines and the asynchronous engine's
	// run states, on the circuits the benchmark runs them on.
	mult := gen.GateMultiplier(gen.DefaultMultiplier())
	cpu := gen.CPU(gen.DefaultCPU())
	inv := gen.InverterArray(gen.DefaultInverterArray())
	cases := []struct {
		c   *circuit.Circuit
		cfg engine.Config
	}{
		{mult, engine.Config{Engine: "asynchronous", Workers: 1, Horizon: 512}},
		{mult, engine.Config{Engine: "asynchronous", Workers: 2, Horizon: 512}},
		{inv, engine.Config{Engine: "asynchronous", Workers: 1, Horizon: 128}},
		{cpu, engine.Config{Engine: "asynchronous", Workers: 1, Horizon: gen.CPUHorizon(gen.DefaultCPU(), 16)}},
		{cpu, engine.Config{Engine: "asynchronous", Workers: 2, Horizon: gen.CPUHorizon(gen.DefaultCPU(), 16)}},
		{mult, engine.Config{Engine: "compiled", Workers: 1, Horizon: 64}},
		{mult, engine.Config{Engine: "jit", Workers: 2, Horizon: 64}},
		{mult, engine.Config{Engine: "vector", Workers: 1, Lanes: 256, Horizon: 64}},
		{cpu, engine.Config{Engine: "jit", Workers: 1, Horizon: 64}},
		{cpu, engine.Config{Engine: "vector", Workers: 2, Lanes: 64, Horizon: 64}},
	}
	for _, tc := range cases {
		run := func() {
			if _, err := engine.Run(context.Background(), tc.c, tc.cfg); err != nil {
				t.Fatal(err)
			}
		}
		run() // fill the process's own memos first
		idle.Runs.Flush()
		run()
		with, counted := heap(), idle.Runs.Bytes()
		idle.Runs.Flush()
		freed := with - heap()
		if counted == 0 || freed <= 0 {
			t.Fatalf("%s %s P=%d: %d bytes counted, %d freed", tc.c.Name, tc.cfg.Engine, tc.cfg.Workers, counted, freed)
		}
		ratio := float64(counted) / float64(freed)
		t.Logf("%s %s P=%d lanes %d: counted %d, freed %d (%.2f)", tc.c.Name, tc.cfg.Engine, tc.cfg.Workers, tc.cfg.Lanes, counted, freed, ratio)
		if ratio < 0.75 || ratio > 1.25 {
			t.Errorf("%s %s P=%d lanes %d: an idle entry counts %d bytes and pins %d", tc.c.Name, tc.cfg.Engine, tc.cfg.Workers, tc.cfg.Lanes, counted, freed)
		}
	}
}

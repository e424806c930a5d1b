package vector

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/gen"
	"parsim/internal/logic"
	_ "parsim/internal/seq"
	"parsim/internal/trace"
)

// run simulates c on the named engine through the registry.
func run(name string, c *circuit.Circuit, cfg engine.Config) (*engine.Report, error) {
	cfg.Engine = name
	return engine.Run(context.Background(), c, cfg)
}

// mustRun is run for a configuration that has to succeed.
func mustRun(t *testing.T, name string, c *circuit.Circuit, cfg engine.Config) *engine.Report {
	t.Helper()
	rep, err := run(name, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// shiftSeeds clones c with every rand/gray generator's seed offset by
// delta — the stimulus lane k of a batched run with LaneStride s sees.
func shiftSeeds(c *circuit.Circuit, delta int64) *circuit.Circuit {
	cp := c.Clone()
	for _, g := range cp.Generators() {
		el := &cp.Elems[g]
		if el.Kind == circuit.KindRand || el.Kind == circuit.KindGray {
			el.Params.Seed += delta
		}
	}
	return cp
}

// TestLanesMatchScalarCompiled runs a batched simulation and checks every
// lane's final values against a scalar run of the sequential reference fed
// that lane's seed-shifted stimulus: compiled mode's results on a
// unit-delay circuit, from an engine that shares no code with the core.
func TestLanesMatchScalarCompiled(t *testing.T) {
	c := gen.RandomUnitCircuit(11, 80)
	const lanes, stride, horizon = 8, 3, 150

	res, err := run("vector", c, engine.Config{
		Workers: 2, Horizon: horizon,
		Lanes: lanes, LaneStride: stride,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.LaneFinal.Lanes(); got != lanes {
		t.Fatalf("LaneFinal rows = %d, want %d", got, lanes)
	}
	for lane := 0; lane < lanes; lane++ {
		sc := mustRun(t, "sequential", shiftSeeds(c, stride*int64(lane)), engine.Config{
			Workers: 1, Horizon: horizon,
		})
		for n := range c.Nodes {
			if got, want := res.LaneFinal.At(lane, n), sc.Final[n]; got != want {
				t.Errorf("lane %d node %q: %v, want %v", lane, c.Nodes[n].Name, got, want)
			}
		}
	}
	// Final is the probe lane's view (default lane 0).
	for n := range c.Nodes {
		if res.Final[n] != res.LaneFinal.At(0, n) {
			t.Fatalf("Final differs from lane 0 of LaneFinal at node %d", n)
		}
	}
}

// TestGoldenVCDByteMatch is the golden waveform check: the batched run's
// probe, pointed at lane k, must reproduce the sequential reference's VCD
// byte for byte when the reference is fed lane k's stimulus.
func TestGoldenVCDByteMatch(t *testing.T) {
	c := gen.RandomUnitCircuit(23, 60)
	const lanes, stride, horizon = 4, 5, 120

	for lane := 0; lane < lanes; lane++ {
		vrec := trace.NewRecorder()
		if _, err := run("vector", c, engine.Config{
			Workers: 2, Horizon: horizon, Probe: vrec,
			Lanes: lanes, LaneStride: stride, ProbeLane: lane,
		}); err != nil {
			t.Fatal(err)
		}

		srec := trace.NewRecorder()
		sc := shiftSeeds(c, stride*int64(lane))
		mustRun(t, "sequential", sc, engine.Config{Workers: 1, Horizon: horizon, Probe: srec})

		var vvcd, svcd bytes.Buffer
		if err := trace.WriteVCD(&vvcd, c, vrec, horizon); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteVCD(&svcd, sc, srec, horizon); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(vvcd.Bytes(), svcd.Bytes()) {
			if d := trace.Diff(c, srec, vrec); d != "" {
				t.Fatalf("lane %d waveform diverges from the sequential reference: %s", lane, d)
			}
			t.Fatalf("lane %d VCD bytes differ", lane)
		}
	}
}

// TestLaneZeroMatchesScalarHistory pins the core contract at full width:
// with all 64 lanes live, lane 0 still replays the scalar run exactly,
// event for event.
func TestLaneZeroMatchesScalarHistory(t *testing.T) {
	c := gen.RandomUnitCircuit(5, 100)
	const horizon = 200

	vrec := trace.NewRecorder()
	if _, err := run("vector", c, engine.Config{Workers: 3, Horizon: horizon, Probe: vrec}); err != nil {
		t.Fatal(err)
	}
	srec := trace.NewRecorder()
	mustRun(t, "sequential", c, engine.Config{Workers: 1, Horizon: horizon, Probe: srec})
	if d := trace.Diff(c, srec, vrec); d != "" {
		t.Fatalf("lane 0 history diverges from the sequential reference: %s", d)
	}
}

func TestOptionValidation(t *testing.T) {
	c := gen.RandomUnitCircuit(1, 20)
	cases := []engine.Config{
		{Workers: 1, Horizon: 10, Lanes: -1},
		{Workers: 1, Horizon: 10, Lanes: logic.MaxWideLanes + 1},
		{Workers: 1, Horizon: 10, Lanes: 4, ProbeLane: 4},
		{Workers: 1, Horizon: 10, ProbeLane: -1},
		{Workers: -1, Horizon: 10},
	}
	for i, cfg := range cases {
		if _, err := run("vector", c, cfg); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
}

func TestSingleLane(t *testing.T) {
	c := gen.RandomUnitCircuit(9, 40)
	res, err := run("vector", c, engine.Config{Workers: 1, Horizon: 100, Lanes: 1})
	if err != nil {
		t.Fatal(err)
	}
	sc := mustRun(t, "sequential", c, engine.Config{Workers: 1, Horizon: 100})
	for n := range c.Nodes {
		if res.Final[n] != sc.Final[n] {
			t.Fatalf("node %d: %v != %v", n, res.Final[n], sc.Final[n])
		}
	}
	if got := res.LaneFinal.Lanes(); got != 1 {
		t.Fatalf("LaneFinal rows = %d", got)
	}
}

// TestCancellation checks the gang leaves together and reports ctx.Err
// with a partial result.
func TestCancellation(t *testing.T) {
	c := gen.RandomUnitCircuit(2, 60)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := engine.Run(ctx, c, engine.Config{Engine: "vector", Workers: 2, Horizon: 1 << 20})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Stats.TimeSteps >= 1<<20 {
		t.Fatalf("expected a partial result, got %+v", res)
	}
}

// TestRegistryDispatch runs the engine through the unified registry,
// proving registration, alias resolution and LaneFinal plumbing.
func TestRegistryDispatch(t *testing.T) {
	c := gen.RandomUnitCircuit(4, 40)
	for _, name := range []string{"vector", "batched", "bit-parallel"} {
		rep, err := engine.Run(context.Background(), c, engine.Config{
			Engine: name, Workers: 1, Horizon: 50, Lanes: 4,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := rep.LaneFinal.Lanes(); got != 4 {
			t.Fatalf("%s: LaneFinal rows = %d", name, got)
		}
		if rep.Stats.Algorithm == "" || rep.Stats.NodeUpdates == 0 {
			t.Fatalf("%s: empty stats: %+v", name, rep.Stats)
		}
	}
}

// TestInverterArraySanity runs the benchmark circuit the BENCH_vector
// figure uses, as a correctness gate: lane 0 vs the sequential reference.
func TestInverterArraySanity(t *testing.T) {
	cfg := gen.DefaultInverterArray()
	cfg.Rows, cfg.Cols, cfg.ActiveRows = 8, 8, 8
	c := gen.InverterArray(cfg)
	vrec := trace.NewRecorder()
	if _, err := run("vector", c, engine.Config{Workers: 1, Horizon: 96, Probe: vrec}); err != nil {
		t.Fatal(err)
	}
	srec := trace.NewRecorder()
	mustRun(t, "sequential", c, engine.Config{Workers: 1, Horizon: 96, Probe: srec})
	if d := trace.Diff(c, srec, vrec); d != "" {
		t.Fatalf("inverter array diverges: %s", d)
	}
}

func TestZeroHorizon(t *testing.T) {
	c := gen.RandomUnitCircuit(6, 20)
	res, err := run("vector", c, engine.Config{Workers: 1, Horizon: 0, Lanes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Final) != len(c.Nodes) {
		t.Fatalf("Final len = %d", len(res.Final))
	}
	_ = res
}

func TestLaneStrideZeroDefaultsToOne(t *testing.T) {
	c := gen.RandomUnitCircuit(8, 40)
	a, err := run("vector", c, engine.Config{Workers: 1, Horizon: 80, Lanes: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := run("vector", c, engine.Config{Workers: 1, Horizon: 80, Lanes: 4, LaneStride: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a.LaneFinal.Lanes() != 4 || !a.LaneFinal.Equal(b.LaneFinal) {
		t.Fatal("lane finals differ under default stride")
	}
	_ = logic.MaxLanes
}

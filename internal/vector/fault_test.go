package vector

import (
	"context"
	"testing"

	"parsim/internal/analyze"
	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/gen"
	"parsim/internal/logic"
)

// TestWideFaultInverterArrayFullCoverage runs concurrent fault simulation on
// the paper's control circuit. The collapsed fault list is exactly the chain
// heads (both polarities of every toggling input), every one of which
// reaches its chain's sink, so coverage must be total — and no detection can
// happen before the fault effect has propagated through the chain.
func TestWideFaultInverterArrayFullCoverage(t *testing.T) {
	cfg := gen.DefaultInverterArray()
	cfg.Rows, cfg.Cols, cfg.ActiveRows = 8, 8, 8
	c := gen.InverterArray(cfg)

	res, err := run("vector", c, engine.Config{
		Workers: 2, Horizon: 64, Lanes: 64,
		FaultSim: true, FaultStatuses: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cov := res.FaultCoverage
	if cov == nil {
		t.Fatal("no FaultCoverage on fault-sim result")
	}
	if cov.Total != 2*cfg.Rows {
		t.Fatalf("collapsed list has %d faults, want %d (chain heads only)", cov.Total, 2*cfg.Rows)
	}
	if cov.Detected != cov.Total {
		t.Fatalf("coverage %.3f (%d/%d), want 1.0; statuses: %+v",
			cov.Coverage(), cov.Detected, cov.Total, cov.Faults)
	}
	if cov.Passes != 1 {
		t.Fatalf("Passes = %d, want 1", cov.Passes)
	}
	if want := analyze.TotalFaultSites(c) - cov.Total; cov.Collapsed != want {
		t.Fatalf("Collapsed = %d, want %d", cov.Collapsed, want)
	}
	for _, st := range cov.Faults {
		if st.Step < int64(cfg.Cols) {
			t.Errorf("fault %s detected at step %d, before the %d-deep chain can propagate",
				st.Site, st.Step, cfg.Cols)
		}
	}
	if res.LaneFinal != nil {
		t.Fatal("fault-sim result carries LaneFinal; expected nil")
	}
}

// TestWideFaultGateMultiplierCoverage is the acceptance-level run: the
// paper's gate-level array multiplier (scaled to 4x4) under random operand
// vectors must reach at least 90% stuck-at coverage, with the fault list
// spanning multiple words of a wide plane.
func TestWideFaultGateMultiplierCoverage(t *testing.T) {
	mcfg := gen.DefaultMultiplier()
	mcfg.N, mcfg.InPeriod, mcfg.Seed = 4, 64, 11
	c := gen.GateMultiplier(mcfg)

	faults := analyze.FaultList(c, true)
	if len(faults) <= 64 {
		t.Fatalf("multiplier fault list has %d faults; want >64 so a 256-lane pass crosses words", len(faults))
	}
	res, err := run("vector", c, engine.Config{
		Workers: 2, Horizon: 1024, Lanes: 256,
		FaultSim: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cov := res.FaultCoverage
	if cov == nil {
		t.Fatal("no FaultCoverage on fault-sim result")
	}
	if cov.Total != len(faults) {
		t.Fatalf("Total = %d, want %d", cov.Total, len(faults))
	}
	if cov.Coverage() < 0.90 {
		t.Fatalf("coverage %.3f (%d/%d) below 0.90", cov.Coverage(), cov.Detected, cov.Total)
	}
	if cov.Faults != nil {
		t.Fatal("statuses kept without KeepStatuses")
	}
}

// TestWideFaultMultiPassMatchesSinglePass chunks the same fault list into
// many narrow passes and checks every fault resolves identically (detected
// flag and first-detection step) to one wide pass — the pass boundary must
// be invisible. So must the worker count: injection ownership follows the
// compiled program's slab stripes, and the wide pass at 2 and 4 workers
// must resolve every fault exactly as one worker does.
func TestWideFaultMultiPassMatchesSinglePass(t *testing.T) {
	cfg := gen.DefaultInverterArray()
	cfg.Rows, cfg.Cols, cfg.ActiveRows = 6, 5, 4
	c := gen.InverterArray(cfg)
	faults := analyze.FaultList(c, false) // full universe: force several passes

	run := func(lanes, workers int) *engine.Report {
		res, err := vectorEng.runFaults(c, engine.Config{
			Workers: workers, Horizon: 48, Lanes: lanes,
			FaultSim: true, FaultStatuses: true,
		}, faults)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	narrow := run(8, 1) // 7 faults per pass
	wide := run(128, 1) // all faults in one pass
	if narrow.FaultCoverage.Passes <= wide.FaultCoverage.Passes {
		t.Fatalf("narrow run took %d passes, wide %d; expected chunking",
			narrow.FaultCoverage.Passes, wide.FaultCoverage.Passes)
	}
	if narrow.FaultCoverage.Detected != wide.FaultCoverage.Detected {
		t.Fatalf("detected: narrow %d, wide %d", narrow.FaultCoverage.Detected, wide.FaultCoverage.Detected)
	}
	for i := range faults {
		n, w := narrow.FaultCoverage.Faults[i], wide.FaultCoverage.Faults[i]
		if n != w {
			t.Fatalf("fault %d (%s): narrow %+v, wide %+v", i, n.Site, n, w)
		}
	}
	for _, workers := range []int{2, 4} {
		par := run(128, workers).FaultCoverage
		if par.Detected != wide.FaultCoverage.Detected {
			t.Fatalf("detected at %d workers: %d, one worker %d", workers, par.Detected, wide.FaultCoverage.Detected)
		}
		for i := range faults {
			if got, want := par.Faults[i], wide.FaultCoverage.Faults[i]; got != want {
				t.Fatalf("fault %d (%s) at %d workers: %+v, one worker %+v", i, want.Site, workers, got, want)
			}
		}
	}
}

// TestWideFaultGoodMachineUnperturbed: the fault-sim run's Final is lane
// 0's view and must be bit-identical to a plain run of the same circuit —
// injected faults may never leak into the good machine.
func TestWideFaultGoodMachineUnperturbed(t *testing.T) {
	cfg := gen.DefaultInverterArray()
	cfg.Rows, cfg.Cols, cfg.ActiveRows = 4, 6, 4
	c := gen.InverterArray(cfg)

	plain, err := run("vector", c, engine.Config{Workers: 1, Horizon: 50, Lanes: 1})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := run("vector", c, engine.Config{
		Workers: 2, Horizon: 50, Lanes: 64,
		FaultSim: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for n := range c.Nodes {
		if plain.Final[n] != faulty.Final[n] {
			t.Fatalf("node %q: good machine %v under faults, %v plain",
				c.Nodes[n].Name, faulty.Final[n], plain.Final[n])
		}
	}
}

// TestWideFaultMaxPasses caps the chunk loop: faults beyond the cap stay
// undetected and the pass count reflects the cap.
func TestWideFaultMaxPasses(t *testing.T) {
	cfg := gen.DefaultInverterArray()
	cfg.Rows, cfg.Cols, cfg.ActiveRows = 8, 4, 8
	c := gen.InverterArray(cfg)
	faults := analyze.FaultList(c, true) // 16 faults

	res, err := vectorEng.runFaults(c, engine.Config{
		Workers: 1, Horizon: 40, Lanes: 8, // 7 faults per pass
		FaultSim: true, FaultMaxPasses: 1, FaultStatuses: true,
	}, faults)
	if err != nil {
		t.Fatal(err)
	}
	cov := res.FaultCoverage
	if cov.Passes != 1 {
		t.Fatalf("Passes = %d, want 1", cov.Passes)
	}
	if cov.Detected != 7 {
		t.Fatalf("Detected = %d, want exactly the first pass's 7", cov.Detected)
	}
	for i, st := range cov.Faults {
		if got, want := st.Detected, i < 7; got != want {
			t.Errorf("fault %d (%s): detected %v, want %v", i, st.Site, got, want)
		}
	}
}

// TestWideFaultOptionValidation: fault simulation needs a reference lane
// plus at least one fault lane.
func TestWideFaultOptionValidation(t *testing.T) {
	c := gen.RandomUnitCircuit(3, 20)
	if _, err := run("vector", c, engine.Config{Workers: 1, Horizon: 10, Lanes: 1, FaultSim: true}); err == nil {
		t.Fatal("Lanes=1 fault sim accepted")
	}
}

// TestWideFaultEngineDispatch drives fault simulation through the unified
// engine registry and checks the engine layer rejects non-vector engines.
func TestWideFaultEngineDispatch(t *testing.T) {
	cfg := gen.DefaultInverterArray()
	cfg.Rows, cfg.Cols, cfg.ActiveRows = 4, 4, 4
	c := gen.InverterArray(cfg)

	rep, err := engine.Run(context.Background(), c, engine.Config{
		Engine: "vector", Workers: 1, Horizon: 40, Lanes: 64,
		FaultSim: true, FaultStatuses: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FaultCoverage == nil || rep.FaultCoverage.Detected == 0 {
		t.Fatalf("registry fault run reported no coverage: %+v", rep.FaultCoverage)
	}
	if len(rep.FaultCoverage.Faults) == 0 {
		t.Fatal("FaultStatuses did not propagate status rows")
	}

	if _, err := engine.Run(context.Background(), c, engine.Config{
		Engine: "compiled", Workers: 1, Horizon: 40, FaultSim: true,
	}); err == nil {
		t.Fatal("compiled engine accepted a fault-sim config")
	}
	_ = logic.MaxWideLanes
}

// TestWideFaultStuckGeneratorNotCounted pins how fault simulation counts a
// stuck-at fault on a generator output: the stuck lane never changes, so it
// never counts as a node update. Both polarities stuck on a random
// generator whose value often repeats across a period boundary, plus an
// inverter it drives, must count exactly the good machine's updates.
func TestWideFaultStuckGeneratorNotCounted(t *testing.T) {
	b := circuit.NewBuilder("stuck-generator")
	g, y := b.Bit("g"), b.Bit("y")
	b.Rand("r", g, 3, 5)
	b.Gate(circuit.KindNot, "inv", 1, y, g)
	c := b.MustBuild()
	faults := []analyze.Fault{{Node: g}, {Node: g, StuckHigh: true}}

	const horizon = 200
	good := mustRun(t, "vector", c, engine.Config{Workers: 1, Horizon: horizon, Lanes: 1})
	for _, workers := range []int{1, 2} {
		res, err := vectorEng.runFaults(c, engine.Config{
			Workers: workers, Horizon: horizon, Lanes: 64, FaultSim: true,
		}, faults)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Stats.NodeUpdates, good.Stats.NodeUpdates; got != want {
			t.Errorf("workers %d: fault run counts %d updates, good machine %d", workers, got, want)
		}
	}
}

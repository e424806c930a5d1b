package parsim

import (
	"bytes"
	"strings"
	"testing"
)

// buildBlinker returns a tiny unit-delay circuit usable by every algorithm.
func buildBlinker(t *testing.T) *Circuit {
	t.Helper()
	b := NewBuilder("blinker")
	clk := b.Bit("clk")
	q := b.Bit("q")
	b.Clock("osc", clk, 10, 0, 0)
	b.Gate(Not, "inv", 1, q, clk)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAllAlgorithmsAgree(t *testing.T) {
	c := RandomUnitCircuit(3, 60)
	var ref *Recorder
	for _, alg := range []Algorithm{Sequential, EventDriven, Compiled, Async, DistAsync, TimeWarp, ChandyMisra, Vector} {
		rec := NewRecorder()
		opts := Options{Engine: alg, Horizon: 200, Probe: rec, Workers: 2}
		if alg == Sequential {
			opts.Workers = 1
		}
		res, err := Simulate(c, opts)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.Stats.NodeUpdates == 0 {
			t.Errorf("%v: no activity", alg)
		}
		if ref == nil {
			ref = rec
			continue
		}
		if d := HistoryDiff(c, ref, rec); d != "" {
			t.Errorf("%v differs from sequential: %s", alg, d)
		}
	}
}

func TestSimulateErrors(t *testing.T) {
	c := buildBlinker(t)
	cases := []Options{
		{Engine: Sequential, Horizon: 10, Workers: 4}, // seq is single-worker
		{Engine: Async, Horizon: -1},
		{Engine: "warp-9", Horizon: 10}, // not a registered name
		{Engine: Async, Horizon: 10, Workers: -3},
	}
	for i, opts := range cases {
		if _, err := Simulate(c, opts); err == nil {
			t.Errorf("case %d: no error", i)
		}
	}
	if _, err := Simulate(nil, Options{Horizon: 10}); err == nil {
		t.Error("nil circuit accepted")
	}
}

func TestDefaultWorkerCount(t *testing.T) {
	c := buildBlinker(t)
	res, err := Simulate(c, Options{Engine: Async, Horizon: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Workers != 1 {
		t.Errorf("default workers = %d", res.Stats.Workers)
	}
}

// TestAlgorithmNames: every Algorithm constant is a canonical registry
// name, and the zero Options.Engine runs Sequential.
func TestAlgorithmNames(t *testing.T) {
	for _, a := range []Algorithm{Sequential, EventDriven, Compiled, Async, DistAsync, TimeWarp, ChandyMisra, Vector, JIT} {
		if got, err := ParseAlgorithm(a); err != nil || got != a {
			t.Errorf("ParseAlgorithm(%q) = %q, %v; want the constant itself", a, got, err)
		}
	}
	if res, err := Simulate(buildBlinker(t), Options{Horizon: 10}); err != nil || res.Stats.Algorithm != Sequential {
		t.Errorf("zero Engine: %v, want a %s run", err, Sequential)
	}
	// An unregistered name is the registry's error, at parse and at run.
	if _, err := ParseAlgorithm("warp-9"); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Errorf("ParseAlgorithm(warp-9): %v, want the registry's unknown-algorithm error", err)
	}
	if _, err := Simulate(buildBlinker(t), Options{Engine: "warp-9", Horizon: 10}); err == nil ||
		!strings.Contains(err.Error(), "unknown algorithm") {
		t.Errorf("Simulate(warp-9): %v, want the registry's unknown-algorithm error", err)
	}
}

// TestParseAlgorithmCoversRegistry walks the engine registry: every
// canonical name and every alias — "auto" and its alias "select" included
// — must resolve to the engine's canonical name.
func TestParseAlgorithmCoversRegistry(t *testing.T) {
	aliases := map[string]string{
		"seq": "sequential", "event": "event-driven", "parallel-event-driven": "event-driven",
		"compiled-mode": "compiled", "async": "asynchronous", "semi-chaotic": "asynchronous",
		"cm": "chandy-misra", "deadlock-recovery": "chandy-misra",
		"dist": "distributed-async", "distributed": "distributed-async",
		"timewarp": "time-warp", "tw": "time-warp", "optimistic": "time-warp",
		"batched": "vector", "bit-parallel": "vector", "codegen": "jit", "JIT": "jit",
		"select": "auto",
	}
	for _, name := range Algorithms() {
		aliases[name] = name
	}
	for name, canonical := range aliases {
		a, err := ParseAlgorithm(name)
		if err != nil {
			t.Errorf("ParseAlgorithm(%q): %v", name, err)
		} else if a != canonical {
			t.Errorf("ParseAlgorithm(%q) = %v, want %s", name, a, canonical)
		}
	}
}

// TestStatsNameTheEngine runs every registered engine and checks that the
// report says which engine ran and what it was asked: Stats.Algorithm
// starts with the engine's canonical name (auto reports the engine it
// selected), and Stats.Horizon and Stats.Workers are the requested ones.
func TestStatsNameTheEngine(t *testing.T) {
	c := RandomUnitCircuit(3, 40)
	for _, name := range Algorithms() {
		workers := 2
		if name == "sequential" {
			workers = 1
		}
		res, err := Simulate(c.Clone(), Options{Engine: name, Horizon: 64, Workers: workers})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := name
		if res.Selected != nil {
			want, workers = res.Selected.Engine, res.Selected.Workers
		}
		if st := res.Stats; !strings.HasPrefix(st.Algorithm, want) || st.Horizon != 64 || st.Workers != workers {
			t.Errorf("%s: stats report algorithm %q, horizon %d, workers %d; want prefix %q, 64, %d",
				name, st.Algorithm, st.Horizon, st.Workers, want, workers)
		}
	}
}

// TestLaneFieldsCheckedOnScalarEngines: the lane rule is the same for every
// engine, so a scalar run refuses a lane count past the limit and a probe
// lane past its single lane instead of ignoring them.
func TestLaneFieldsCheckedOnScalarEngines(t *testing.T) {
	c := buildBlinker(t)
	for _, opts := range []Options{
		{Engine: Sequential, Horizon: 10, Lanes: 99999},
		{Engine: Sequential, Horizon: 10, ProbeLane: 3},
		{Engine: Sequential, Horizon: 10, Lanes: 99999, ProbeLane: 3},
		{Engine: Async, Horizon: 10, FaultSim: true},
	} {
		if _, err := Simulate(c, opts); err == nil {
			t.Errorf("%s with lanes %d, probe lane %d, fault sim %v accepted",
				opts.Engine, opts.Lanes, opts.ProbeLane, opts.FaultSim)
		}
	}
	if _, err := Simulate(c, Options{Engine: Sequential, Horizon: 10, Lanes: 64}); err != nil {
		t.Errorf("a scalar engine must ignore an in-range lane count: %v", err)
	}
}

func TestNetlistRoundTripViaFacade(t *testing.T) {
	c := BenchFeedbackChain(5)
	var buf bytes.Buffer
	if err := WriteNetlist(&buf, c); err != nil {
		t.Fatal(err)
	}
	c2, err := ReadNetlist(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Name != c.Name || len(c2.Elems) != len(c.Elems) {
		t.Errorf("round trip mangled the circuit")
	}
	if !strings.Contains(NetlistSummary(c), "feedback-chain-5") {
		t.Error("summary missing circuit name")
	}
}

func TestVCDOutput(t *testing.T) {
	c := buildBlinker(t)
	rec := NewRecorder()
	if _, err := Simulate(c, Options{Engine: Sequential, Horizon: 40, Probe: rec}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteVCD(&buf, c, rec, 40); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"$timescale", "$var wire 1", "clk", "$dumpvars", "#0", "#40"} {
		if !strings.Contains(out, want) {
			t.Errorf("VCD missing %q:\n%s", want, out)
		}
	}
}

func TestEventDrivenAblationsAgree(t *testing.T) {
	c := BenchInverterArray(InverterArrayConfig{Rows: 4, Cols: 4, ActiveRows: 4, TogglePeriod: 1})
	ref := NewRecorder()
	if _, err := Simulate(c, Options{Engine: Sequential, Horizon: 100, Probe: ref}); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{Engine: EventDriven, Horizon: 100, Workers: 3, NoSteal: true},
		{Engine: EventDriven, Horizon: 100, Workers: 3, CentralQueue: true},
	} {
		rec := NewRecorder()
		opts.Probe = rec
		if _, err := Simulate(c, opts); err != nil {
			t.Fatal(err)
		}
		if d := HistoryDiff(c, ref, rec); d != "" {
			t.Errorf("ablation differs: %s", d)
		}
	}
}

func TestGateLookaheadOption(t *testing.T) {
	c := BenchCPU(DefaultCPU())
	h := CPUHorizon(DefaultCPU(), 15)
	ref := NewRecorder()
	if _, err := Simulate(c, Options{Engine: Sequential, Horizon: h, Probe: ref}); err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	res, err := Simulate(c, Options{
		Engine: Async, Workers: 2, Horizon: h, Probe: rec, GateLookahead: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := HistoryDiff(c, ref, rec); d != "" {
		t.Fatalf("gate lookahead changed results: %s", d)
	}
	if res.Stats.ModelCalls == 0 {
		t.Error("no model calls recorded")
	}
}

func TestCompiledStrategyOption(t *testing.T) {
	c := BenchInverterArray(InverterArrayConfig{Rows: 4, Cols: 4, ActiveRows: 4, TogglePeriod: 1})
	for _, s := range []Strategy{RoundRobin, Blocks, CostLPT} {
		if _, err := Simulate(c, Options{Engine: Compiled, Horizon: 50, Workers: 2, Strategy: s}); err != nil {
			t.Fatalf("strategy %v: %v", s, err)
		}
	}
}

func TestIsUnitDelay(t *testing.T) {
	if !IsUnitDelay(BenchInverterArray(DefaultInverterArray())) {
		t.Error("inverter array should be unit delay")
	}
	if IsUnitDelay(BenchCPU(DefaultCPU())) {
		t.Error("CPU is not unit delay")
	}
	if IsUnitDelay(buildZeroDelayChain(t)) {
		t.Error("a delay-0 element is not unit delay")
	}
}

// buildZeroDelayChain is a clock into a delay-0 inverter into a delay-1
// one: no cycle, so lint passes it, but the levelized engines would time
// the delay-0 stage as a unit step and drift from event timing.
func buildZeroDelayChain(t *testing.T) *Circuit {
	t.Helper()
	b := NewBuilder("zero-delay-chain")
	clk, mid, a := b.Bit("clk"), b.Bit("mid"), b.Bit("a")
	b.Clock("osc", clk, 4, 0, 0)
	b.Gate(Not, "inv0", 0, mid, clk)
	b.Gate(Not, "inv1", 1, a, mid)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestAutoZeroDelayMatchesSequential: engine=auto must not hand a circuit
// with a delay-0 element to a levelized engine, whose waveform differs.
func TestAutoZeroDelayMatchesSequential(t *testing.T) {
	c := buildZeroDelayChain(t)
	ref, got := NewRecorder(), NewRecorder()
	if _, err := Simulate(c, Options{Engine: Sequential, Horizon: 21, Probe: ref}); err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(c, Options{Engine: "auto", Horizon: 21, Workers: 2, Probe: got})
	if err != nil {
		t.Fatal(err)
	}
	if d := HistoryDiff(c, ref, got); d != "" {
		t.Errorf("auto picked %s and diverged from sequential: %s", res.Selected.Engine, d)
	}
}

func TestCPUFacade(t *testing.T) {
	cfg := DefaultCPU()
	c := BenchCPU(cfg)
	res, err := Simulate(c, Options{Engine: Async, Workers: 2, Horizon: CPUHorizon(cfg, 150)})
	if err != nil {
		t.Fatal(err)
	}
	iss := NewISS(cfg.Program)
	iss.Run(150)
	for r := 0; r < 16; r++ {
		got, ok := CPURegValue(c, res.Final, r)
		if !ok || got != iss.Reg[r] {
			t.Errorf("r%d = %d (ok=%v), ISS %d", r, got, ok, iss.Reg[r])
		}
	}
}

func TestValueHelpers(t *testing.T) {
	if V(4, 9).String() != "4'b1001" {
		t.Error("V broken")
	}
	v, err := ParseValue("8'hff")
	if err != nil || v.MustUint() != 255 {
		t.Error("ParseValue broken")
	}
	if AllX(2).IsKnown() || !AllZ(2).HasZ() {
		t.Error("AllX/AllZ broken")
	}
}

func TestExperimentFacade(t *testing.T) {
	cfg := DefaultExperimentConfig(ModelMode)
	cfg.Quick = true
	cfg.MaxP = 4
	f, err := Experiment("fig5", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 2 {
		t.Fatalf("fig5 has %d series", len(f.Series))
	}
	if !strings.Contains(f.Format(), "asynchronous") {
		t.Error("figure formatting broken")
	}
	if _, err := Experiment("nope", cfg); err == nil {
		t.Error("unknown experiment accepted")
	}
	if len(ExperimentIDs()) != 10 {
		t.Errorf("expected 10 experiments, have %d", len(ExperimentIDs()))
	}
}

// TestQuickAllAlgorithmsOnRandomCircuits is the top-level differential
// property: on randomized unit-delay circuits, every algorithm in the
// library produces the same node histories.
func TestQuickAllAlgorithmsOnRandomCircuits(t *testing.T) {
	algs := []Algorithm{EventDriven, Compiled, Async, DistAsync, TimeWarp, ChandyMisra, Vector}
	for seed := int64(100); seed < 105; seed++ {
		c := RandomUnitCircuit(seed, 50+int(seed%3)*20)
		horizon := Time(150 + seed%5*30)
		workers := 2 + int(seed%3)

		ref := NewRecorder()
		if _, err := Simulate(c, Options{Engine: Sequential, Horizon: horizon, Probe: ref}); err != nil {
			t.Fatal(err)
		}
		for _, alg := range algs {
			rec := NewRecorder()
			if _, err := Simulate(c, Options{
				Engine: alg, Workers: workers, Horizon: horizon, Probe: rec,
			}); err != nil {
				t.Fatalf("seed %d %v: %v", seed, alg, err)
			}
			if d := HistoryDiff(c, ref, rec); d != "" {
				t.Errorf("seed %d: %v differs: %s", seed, alg, d)
			}
		}
	}
}

// TestQuickAsyncOptionMatrix sweeps the async algorithm's option space on
// circuits with multi-delay elements and feedback.
func TestQuickAsyncOptionMatrix(t *testing.T) {
	for seed := int64(200); seed < 206; seed++ {
		c := RandomCircuit(seed, 70)
		ref := NewRecorder()
		if _, err := Simulate(c, Options{Engine: Sequential, Horizon: 200, Probe: ref}); err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{
			{Engine: Async, Workers: 3},
			{Engine: Async, Workers: 3, NoLookahead: true},
			{Engine: Async, Workers: 3, GateLookahead: true},
			{Engine: Async, Workers: 1, GateLookahead: true, NoLookahead: true},
			{Engine: ChandyMisra, Workers: 2},
		} {
			opts.Horizon = 200
			rec := NewRecorder()
			opts.Probe = rec
			if _, err := Simulate(c, opts); err != nil {
				t.Fatal(err)
			}
			if d := HistoryDiff(c, ref, rec); d != "" {
				t.Errorf("seed %d opts %+v: %s", seed, opts, d)
			}
		}
	}
}

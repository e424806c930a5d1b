package vector

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"parsim/internal/analyze"
	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/gen"
	"parsim/internal/idle"
	"parsim/internal/logic"
	"parsim/internal/netlist"
	"parsim/internal/trace"
)

// statefulCircuit holds every lowering that keeps state between steps — a
// dff and a dffr (the register batch), a latch, a RAM with initial
// contents, a ROM with contents rom, and mul and alu (scalar fallbacks at
// one lane, like the ROM and RAM) — fed by clock, wave, rand and gray
// generators, so a lane stride makes the lanes diverge.
func statefulCircuit(rom []uint64) *circuit.Circuit {
	b := circuit.NewBuilder("stateful")
	n := func(name string, w int) circuit.NodeID { return b.Node(name, w) }
	add := func(k circuit.Kind, name string, out circuit.NodeID, p circuit.Params, ins ...circuit.NodeID) {
		b.AddElement(k, name, 1, []circuit.NodeID{out}, ins, p)
	}
	clk, en, rst := b.Bit("clk"), b.Bit("en"), b.Bit("rst")
	b.Clock("osc", clk, 4, 0, 0)
	b.Clock("enosc", en, 6, 1, 2)
	b.Wave("rstgen", rst, []circuit.Time{0, 6}, []logic.Value{logic.V(1, 1), logic.V(1, 0)})
	rnd, gray := n("rnd", 4), n("gray", 4)
	b.Rand("rndgen", rnd, 5, 7)
	add(circuit.KindGray, "graygen", gray, circuit.Params{Period: 3, Seed: 2})

	q1, q2, lq := n("q1", 4), n("q2", 4), n("lq", 4)
	add(circuit.KindDFF, "ff", q1, circuit.Params{}, clk, rnd)
	add(circuit.KindDFFR, "ffr", q2, circuit.Params{Init: logic.V(4, 9)}, clk, rst, gray)
	add(circuit.KindLatch, "latch", lq, circuit.Params{}, en, q1)

	romOut, we, op := n("rom", 8), b.Bit("we"), n("op", 3)
	add(circuit.KindRom, "rom", romOut, circuit.Params{Mem: rom}, gray)
	add(circuit.KindSlice, "we", we, circuit.Params{Lo: 1}, rnd)
	add(circuit.KindSlice, "op", op, circuit.Params{Lo: 4}, romOut)
	ramOut, prod, alu := n("ram", 4), n("prod", 4), n("alu", 4)
	add(circuit.KindRam, "ram", ramOut, circuit.Params{Mem: []uint64{3, 1, 4, 1, 5, 9, 2, 6}}, clk, we, q2, lq)
	add(circuit.KindMul, "mul", prod, circuit.Params{}, ramOut, gray)
	add(circuit.KindAlu, "alu", alu, circuit.Params{}, op, prod, lq)
	return b.MustBuild()
}

var (
	romA = []uint64{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x0f, 0xe1, 0xd2, 0xc3, 0xb4, 0xa5, 0x96, 0x87}
	romB = []uint64{0x21, 0x43, 0x65, 0x87, 0xa9, 0xcb, 0xed, 0x0f, 0xf0, 0x1e, 0x2d, 0x3c, 0x4b, 0x5a, 0x69, 0x78}
)

// flushMachines empties the machine cache, so the next run of any key
// lowers.
func flushMachines() { idle.Runs.Flush() }

// outcome is what a run hands back that a reused machine could perturb.
type outcome struct {
	hist           map[circuit.NodeID][]trace.Change // nil: not compared
	final          []logic.Value
	lanes          *logic.LaneValues
	evals, updates int64
	steps          int64
}

func outcomeOf(c *circuit.Circuit, rep *engine.Report, rec *trace.Recorder) outcome {
	o := outcome{final: rep.Final, lanes: rep.LaneFinal, steps: rep.Stats.TimeSteps}
	o.evals, o.updates = rep.Stats.Evals, rep.Stats.NodeUpdates
	if rec != nil {
		o.hist = make(map[circuit.NodeID][]trace.Change)
		for n := range c.Nodes {
			o.hist[circuit.NodeID(n)] = rec.History(circuit.NodeID(n))
		}
	}
	return o
}

// diff names the first way got differs from want, or is "".
func (want outcome) diff(got outcome) string {
	switch {
	case !sameValues(want.final, got.final):
		return "final values differ"
	case (want.lanes == nil) != (got.lanes == nil) || want.lanes != nil && !want.lanes.Equal(got.lanes):
		return "lane finals differ"
	case want.evals != got.evals || want.updates != got.updates || want.steps != got.steps:
		return fmt.Sprintf("evals/updates/steps %d/%d/%d, want %d/%d/%d",
			got.evals, got.updates, got.steps, want.evals, want.updates, want.steps)
	}
	if want.hist != nil && got.hist != nil {
		for n, h := range want.hist {
			if !slices.Equal(h, got.hist[n]) {
				return fmt.Sprintf("node %d history differs", n)
			}
		}
	}
	return ""
}

// freshOutcome runs c on a machine lowered for this run alone, outside
// the cache: the reference every reused run must match.
func freshOutcome(t *testing.T, c *circuit.Circuit, cfg engine.Config) outcome {
	t.Helper()
	rec := trace.NewRecorder()
	cfg.Probe = rec
	prog := compileProgram(c, cfg.Workers, cfg.Lanes, cfg.LaneStride)
	rep, err := jitEng.runProgram(newMachine(prog, cfg.Workers, logic.PlaneWords(cfg.Lanes)), c, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return outcomeOf(c, rep, rec)
}

// recorded runs c through the registry with a recorder attached.
func recorded(t *testing.T, c *circuit.Circuit, cfg engine.Config) outcome {
	t.Helper()
	rec := trace.NewRecorder()
	cfg.Probe = rec
	rep, err := engine.Run(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return outcomeOf(c, rep, rec)
}

// cancelAt cancels its run at the first change it sees at or after t.
type cancelAt struct {
	t      circuit.Time
	cancel context.CancelFunc
}

func (p cancelAt) OnChange(_ circuit.NodeID, t circuit.Time, _ logic.Value) {
	if t >= p.t {
		p.cancel()
	}
}

// TestMachineReuseExact: a run on a reused machine is indistinguishable
// from a run on a freshly lowered one — cold, warm, warm after a run
// cancelled mid-way, warm after a checkpointed run and its resume — at
// 1/64/256 lanes and 1/2 workers, and the whole key lowers once.
func TestMachineReuseExact(t *testing.T) {
	const horizon = 200
	c := statefulCircuit(romA)
	for _, lanes := range []int{1, 64, 256} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("l%d/p%d", lanes, workers), func(t *testing.T) {
				cfg := engine.Config{Engine: "jit", Workers: workers, Lanes: lanes, LaneStride: 3, Horizon: horizon}
				ref := freshOutcome(t, c, cfg)
				check := func(label string, got outcome) {
					t.Helper()
					if d := ref.diff(got); d != "" {
						t.Fatalf("%s run: %s", label, d)
					}
				}
				flushMachines()
				before := lowerings.Load()
				check("cold", recorded(t, c, cfg))
				check("warm", recorded(t, c, cfg))

				// cancelAt cancels at step horizon/2, but the engines see a
				// cancellation through a flag a goroutine sets after cancel
				// returns, which a loaded host may run only after the rest of
				// a 200-step run. So this run's horizon is out of reach; the
				// machine key leaves the horizon out, so it still checks out
				// the same machine.
				ctx, cancel := context.WithCancel(context.Background())
				cc := cfg
				cc.Horizon = math.MaxInt32
				cc.Probe = cancelAt{t: horizon / 2, cancel: cancel}
				rep, err := engine.Run(ctx, c, cc)
				cancel()
				if !errors.Is(err, context.Canceled) || rep == nil || rep.Stats.TimeSteps >= int64(cc.Horizon)-1 {
					t.Fatalf("cancelled run: err %v, report %v", err, rep)
				}
				check("warm after a cancelled", recorded(t, c, cfg))

				path := filepath.Join(t.TempDir(), "run.ckpt")
				ck := cfg
				ck.Checkpoint = engine.CheckpointSpec{Path: path, EverySteps: 16}
				check("checkpointed", recorded(t, c, ck))
				rs := cfg
				rs.ResumeFrom = path
				rep, err = engine.Run(context.Background(), c, rs)
				if err != nil || !rep.Resumed {
					t.Fatalf("resumed run: err %v, report %v", err, rep)
				}
				resumed := outcomeOf(c, rep, nil)
				if d := ref.diff(resumed); d != "" {
					t.Fatalf("resumed run: %s", d)
				}
				check("warm after a resumed", recorded(t, c, cfg))

				if got := lowerings.Load() - before; got != 1 {
					t.Errorf("%d lowerings for one key, want 1", got)
				}
			})
		}
	}
}

// faultOutcome is what a fault run hands back: the statuses with the
// outcome's finals and counters.
type faultOutcome struct {
	outcome
	statuses []string
}

func faultOutcomeOf(c *circuit.Circuit, rep *engine.Report) faultOutcome {
	o := faultOutcome{outcome: outcomeOf(c, rep, nil)}
	for _, s := range rep.FaultCoverage.Faults {
		o.statuses = append(o.statuses, fmt.Sprintf("%v@%d:%v", s.Site, s.Step, s.Detected))
	}
	return o
}

// TestMachineReuseFaultPasses: a multi-pass fault run — every pass after
// the first on the first one's machine, and a second run warm from its
// start — matches the same passes run one by one on fresh lowerings, and
// lowers once.
func TestMachineReuseFaultPasses(t *testing.T) {
	c := statefulCircuit(romA)
	faults := analyze.FaultList(c, true)
	for _, workers := range []int{1, 2} {
		for _, lanes := range []int{64, 256} {
			cfg := engine.Config{Engine: "jit", Workers: workers, Lanes: lanes, Horizon: 160, FaultSim: true, FaultStatuses: true}
			per := lanes - 1
			var want faultOutcome
			for lo := 0; lo < len(faults); lo += per {
				flushMachines()
				rep, err := jitEng.runFaults(c, cfg, faults[lo:min(lo+per, len(faults))])
				if err != nil {
					t.Fatal(err)
				}
				pass := faultOutcomeOf(c, rep)
				want.final = pass.final
				want.evals += pass.evals
				want.updates += pass.updates
				want.steps += pass.steps
				want.statuses = append(want.statuses, pass.statuses...)
			}
			flushMachines()
			before := lowerings.Load()
			for _, label := range []string{"cold", "warm"} {
				rep, err := engine.Run(context.Background(), c, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := faultOutcomeOf(c, rep)
				if passes := rep.FaultCoverage.Passes; passes != (len(faults)+per-1)/per {
					t.Fatalf("p%d l%d: %d passes for %d faults", workers, lanes, passes, len(faults))
				}
				if d := want.diff(got.outcome); d != "" {
					t.Errorf("p%d l%d %s fault run: %s", workers, lanes, label, d)
				}
				if !slices.Equal(want.statuses, got.statuses) {
					t.Errorf("p%d l%d %s fault run: statuses differ", workers, lanes, label)
				}
			}
			if got := lowerings.Load() - before; got != 1 {
				t.Errorf("p%d l%d: two fault runs lowered %d times, want once", workers, lanes, got)
			}
		}
	}
}

// TestMachineKeySeparatesROMContents: two circuits that differ only in
// their ROM's contents never share a machine, run back to back in either
// order.
func TestMachineKeySeparatesROMContents(t *testing.T) {
	a, b := statefulCircuit(romA), statefulCircuit(romB)
	for _, lanes := range []int{1, 64} {
		cfg := engine.Config{Engine: "jit", Workers: 1, Lanes: lanes, LaneStride: 3, Horizon: 120}
		refA, refB := freshOutcome(t, a, cfg), freshOutcome(t, b, cfg)
		if refA.diff(refB) == "" {
			t.Fatal("the ROM contents do not reach the outcome: the test cannot see a shared machine")
		}
		flushMachines()
		for i, c := range []*circuit.Circuit{a, b, a, b} {
			want := []outcome{refA, refB}[i%2]
			if d := want.diff(recorded(t, c, cfg)); d != "" {
				t.Errorf("l%d run %d: %s", lanes, i, d)
			}
		}
	}
}

// keyedElem, keyedParams and keyedNode give, per field lowering reads, a
// mutation that must change the machine key; notKeyed lists the fields
// lowering does not read, with why.
var (
	keyedElem = map[string]func(el *circuit.Element){
		"Kind":  func(el *circuit.Element) { el.Kind = circuit.KindLatch },
		"In":    func(el *circuit.Element) { el.In = slices.Clone(el.In); el.In[0]++ },
		"Out":   func(el *circuit.Element) { el.Out = slices.Clone(el.Out); el.Out[0]++ },
		"Delay": func(el *circuit.Element) { el.Delay++ },
		"Cost":  func(el *circuit.Element) { el.Cost++ },
	}
	keyedParams = map[string]func(p *circuit.Params){
		"Init":   func(p *circuit.Params) { p.Init = logic.V(4, 5) },
		"Period": func(p *circuit.Params) { p.Period++ },
		"Phase":  func(p *circuit.Params) { p.Phase++ },
		"Duty":   func(p *circuit.Params) { p.Duty++ },
		"Times":  func(p *circuit.Params) { p.Times = append(slices.Clone(p.Times), 99) },
		"Values": func(p *circuit.Params) { p.Values = append(slices.Clone(p.Values), logic.V(1, 1)) },
		"Mem":    func(p *circuit.Params) { p.Mem = slices.Clone(p.Mem); p.Mem[3] ^= 1 },
		"Lo":     func(p *circuit.Params) { p.Lo++ },
		"Shift":  func(p *circuit.Params) { p.Shift++ },
		"Seed":   func(p *circuit.Params) { p.Seed++ },
	}
	keyedNode = map[string]func(nd *circuit.Node){
		"Width": func(nd *circuit.Node) { nd.Width++ },
	}
	notKeyed = map[string]string{
		"Element.ID":      "the element's index",
		"Element.Name":    "a label; renamed circuits share a machine",
		"Node.ID":         "the node's index",
		"Node.Name":       "a label",
		"Node.Driver":     "Build derives it from the Out lists, which the structure digest covers",
		"Node.DriverPort": "Build derives it from the Out lists, which the structure digest covers",
		"Node.Fanout":     "Build derives it from the In lists, which the structure digest covers",
	}
)

// TestMachineKeyCoversLowering: every exported field of Element, Params
// and Node is either in the machine key — mutating it changes the key — or
// listed in notKeyed, and renaming leaves the key alone. A new field that
// is neither fails here, so a machine is never shared by two circuits
// lowering would tell apart.
func TestMachineKeyCoversLowering(t *testing.T) {
	base := statefulCircuit(romA)
	// copyOf is a deep copy of base with no cached structure digest.
	copyOf := func() *circuit.Circuit {
		cp := base.Clone()
		return &circuit.Circuit{Name: cp.Name, Nodes: cp.Nodes, Elems: cp.Elems, ByName: cp.ByName, ElByName: cp.ElByName}
	}
	key := func(c *circuit.Circuit) [32]byte { return machineKey(c, 1, 64, 1) }
	want := key(base)
	if key(copyOf()) != want {
		t.Fatal("an unmutated copy has another key")
	}
	elem := func(c *circuit.Circuit, name string) *circuit.Element { return &c.Elems[c.ElByName[name]] }
	// The element each Params field is mutated on: one that has it set.
	paramElem := map[string]string{"Init": "ffr", "Period": "osc", "Phase": "osc", "Duty": "osc",
		"Times": "rstgen", "Values": "rstgen", "Mem": "rom", "Lo": "we", "Shift": "alu", "Seed": "rndgen"}

	seen := map[string]bool{}
	classify := func(typ reflect.Type, keyed func(string) bool) {
		for i := range typ.NumField() {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			name := typ.Name() + "." + f.Name
			_, listed := notKeyed[name]
			seen[name] = true
			if keyed(f.Name) == listed {
				t.Errorf("%s is neither in the machine key nor listed as not read (or is both)", name)
			}
		}
	}
	classify(reflect.TypeOf(circuit.Element{}), func(f string) bool { _, ok := keyedElem[f]; return ok || f == "Params" })
	classify(reflect.TypeOf(circuit.Params{}), func(f string) bool { _, ok := keyedParams[f]; return ok })
	classify(reflect.TypeOf(circuit.Node{}), func(f string) bool { _, ok := keyedNode[f]; return ok })
	for name := range notKeyed {
		if !seen[name] {
			t.Errorf("notKeyed lists %s, which is no field", name)
		}
	}

	for f, mut := range keyedElem {
		c := copyOf()
		mut(elem(c, "mul"))
		if key(c) == want {
			t.Errorf("mutating Element.%s leaves the machine key unchanged", f)
		}
	}
	for f, mut := range keyedParams {
		c := copyOf()
		mut(&elem(c, paramElem[f]).Params)
		if key(c) == want {
			t.Errorf("mutating Params.%s leaves the machine key unchanged", f)
		}
	}
	for f, mut := range keyedNode {
		c := copyOf()
		mut(&c.Nodes[c.ByName["prod"]])
		if key(c) == want {
			t.Errorf("mutating Node.%s leaves the machine key unchanged", f)
		}
	}
	c := copyOf()
	c.Name = "renamed"
	for i := range c.Elems {
		c.Elems[i].Name += "'"
	}
	for i := range c.Nodes {
		c.Nodes[i].Name += "'"
	}
	if key(c) != want {
		t.Error("renaming the circuit changes the machine key")
	}
	for _, k := range [][32]byte{machineKey(base, 2, 64, 1), machineKey(base, 1, 128, 1), machineKey(base, 1, 64, 0)} {
		if k == want {
			t.Error("the machine key leaves out the workers, the lanes or the stride")
		}
	}
}

// TestOneLoweringPerKey: repeated runs, every pass of a fault run, a
// second parse of the same netlist text, and compiled and jit at one lane
// all run on one lowering per key.
func TestOneLoweringPerKey(t *testing.T) {
	mult := gen.DefaultMultiplier()
	mult.N = 6
	var text bytes.Buffer
	if err := netlist.Write(&text, gen.GateMultiplier(mult)); err != nil {
		t.Fatal(err)
	}
	parse := func() *circuit.Circuit {
		c, err := netlist.Read(bytes.NewReader(text.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := parse()
	flushMachines()
	lowered := func(label string, want int64, run func()) {
		t.Helper()
		before := lowerings.Load()
		run()
		if got := lowerings.Load() - before; got != want {
			t.Errorf("%s: %d lowerings, want %d", label, got, want)
		}
	}
	cfg := engine.Config{Engine: "jit", Workers: 1, Horizon: 64}
	lowered("five runs", 1, func() {
		for range 5 {
			mustRun(t, "jit", c, cfg)
		}
	})
	lowered("a second parse", 0, func() { mustRun(t, "jit", parse(), cfg) })
	lowered("compiled, which lowers as jit at one lane", 0, func() {
		mustRun(t, "compiled", c, engine.Config{Workers: 1, Horizon: 64})
	})
	flushMachines()
	lowered("compiled, then jit at one lane", 1, func() {
		mustRun(t, "compiled", c, engine.Config{Workers: 1, Horizon: 64})
		mustRun(t, "jit", parse(), cfg)
	})
	fc := engine.Config{Engine: "jit", Workers: 1, Horizon: 64, Lanes: 8, FaultSim: true}
	lowered("a fault run", 1, func() {
		if rep := mustRun(t, "jit", c, fc); rep.FaultCoverage.Passes < 2 {
			t.Fatalf("%d fault passes, want several", rep.FaultCoverage.Passes)
		}
	})
	lowered("a fault run on a second parse", 0, func() { mustRun(t, "jit", parse(), fc) })
}

// TestMachineReuseConcurrent: four goroutines run three keys ten times
// each — with four runs over three keys, two runs of one key are in flight
// at once — and every result equals a fresh lowering's. Run under -race.
func TestMachineReuseConcurrent(t *testing.T) {
	c := statefulCircuit(romA)
	cfgs := []engine.Config{
		{Engine: "jit", Workers: 1, Lanes: 1, LaneStride: 1, Horizon: 120},
		{Engine: "jit", Workers: 2, Lanes: 64, LaneStride: 3, Horizon: 120},
		{Engine: "vector", Workers: 1, Lanes: 130, LaneStride: 2, Horizon: 120},
	}
	refs := make([]outcome, len(cfgs))
	for i, cfg := range cfgs {
		refs[i] = freshOutcome(t, c, cfg)
	}
	flushMachines()
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range 10 {
				k := (g + r) % len(cfgs)
				rec := trace.NewRecorder()
				cfg := cfgs[k]
				cfg.Probe = rec
				rep, err := engine.Run(context.Background(), c, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if d := refs[k].diff(outcomeOf(c, rep, rec)); d != "" {
					t.Errorf("goroutine %d run %d (key %d): %s", g, r, k, d)
				}
			}
		}()
	}
	wg.Wait()
	for _, cfg := range cfgs {
		key := machineKey(c, cfg.Workers, cfg.Lanes, cfg.LaneStride)
		idle.Checkout[*machine](idle.Runs, key)
		if _, ok := idle.Checkout[*machine](idle.Runs, key); ok {
			t.Error("two idle machines hold one key")
		}
	}
}

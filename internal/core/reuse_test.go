package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/gen"
	"parsim/internal/guard"
	"parsim/internal/idle"
	"parsim/internal/logic"
	"parsim/internal/netlist"
	"parsim/internal/trace"
)

// outcome is what a run hands back that a reused run state could perturb.
type outcome struct {
	hist                   *trace.Recorder
	final                  []logic.Value
	model, events, updates int64
	evals                  int64 // compared at one worker only, where it is deterministic
	workers                int
}

func outcomeOf(rep *engine.Report, rec *trace.Recorder) outcome {
	r := rep.Stats
	return outcome{rec, rep.Final, r.ModelCalls, r.EventsUsed, r.NodeUpdates, r.Evals, r.Workers}
}

// diff describes how got differs from want on c, or returns "".
func (want outcome) diff(c *circuit.Circuit, got outcome) string {
	switch {
	case !slices.Equal(got.final, want.final):
		return "finals differ"
	case got.model != want.model || got.events != want.events || got.updates != want.updates:
		return "model calls, events or updates differ"
	case want.workers == 1 && got.evals != want.evals:
		return "one-worker activations differ"
	}
	return trace.Diff(c, want.hist, got.hist)
}

// runOutcome runs c under cfg (whose Engine is set) with a probe.
func runOutcome(t *testing.T, c *circuit.Circuit, cfg engine.Config) outcome {
	t.Helper()
	rec := trace.NewRecorder()
	cfg.Probe = rec
	rep, err := engine.Run(context.Background(), c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return outcomeOf(rep, rec)
}

// freshOutcome runs c under cfg on a freshly built run state.
func freshOutcome(t *testing.T, c *circuit.Circuit, cfg engine.Config) outcome {
	t.Helper()
	idle.Runs.Flush()
	return runOutcome(t, c, cfg)
}

// reuseCircuits are the paper circuits and a random circuit with feedback
// and registers.
func reuseCircuits() []simCase {
	return append(benchCircuits(), simCase{gen.RandomCircuit(3, 80), 250})
}

func TestRunStateReuseExact(t *testing.T) {
	// A run on a reused run state must equal one on a fresh state — finals,
	// counts, probe history — whatever ran on it before: nothing (cold), a
	// completed run (warm), a chandy-misra run of the same key; and a
	// cancelled, stalled or panicked run, whose state is dropped, so the
	// next run builds.
	for _, bc := range reuseCircuits() {
		for _, p := range []int{1, 2} {
			cfg := engine.Config{Engine: "asynchronous", Workers: p, Horizon: bc.horizon}
			want := freshOutcome(t, bc.c, cfg)
			check := func(after string, wantBuilds int64) {
				t.Helper()
				before := builds.Load()
				if d := want.diff(bc.c, runOutcome(t, bc.c, cfg)); d != "" {
					t.Errorf("%s P=%d after %s: %s", bc.c.Name, p, after, d)
				}
				if got := builds.Load() - before; got != wantBuilds {
					t.Errorf("%s P=%d after %s: %d builds, want %d", bc.c.Name, p, after, got, wantBuilds)
				}
			}
			check("a completed run", 0)
			check("a warm run", 0)

			cm := cfg
			cm.Engine = "chandy-misra"
			runOutcome(t, bc.c, cm)
			check("a chandy-misra run", 0)

			ctx, cancel := context.WithCancel(context.Background())
			cc := cfg
			cc.Probe = onChange(func(circuit.NodeID, circuit.Time, logic.Value) { cancel() })
			// A run may still reach its horizon once cancelled (the guard's
			// flag is set after cancel returns); it is dropped either way.
			if _, err := engine.Run(ctx, bc.c, cc); err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("%s P=%d: cancelled run returned %v", bc.c.Name, p, err)
			}
			cancel()
			check("a cancelled run", 1)

			sc := cfg
			sc.Watchdog, sc.Chaos = 100*time.Millisecond, &guard.ChaosProbe{DropWakeups: 1}
			if _, err := engine.Run(context.Background(), bc.c, sc); !errors.Is(err, guard.ErrStalled) {
				t.Fatalf("%s P=%d: a run that lost a wake-up returned %v, want a stall", bc.c.Name, p, err)
			}
			check("a stalled run", 1)

			pc := cfg
			pc.Chaos = &guard.ChaosProbe{PanicAtEval: 3}
			var fault *guard.WorkerFault
			if _, err := engine.Run(context.Background(), bc.c, pc); !errors.As(err, &fault) {
				t.Fatalf("%s P=%d: a panicking run returned %v", bc.c.Name, p, err)
			}
			check("a panicked run", 1)
		}
	}
}

func TestRunStateReuseConcurrent(t *testing.T) {
	// Four goroutines run two keys eight times each, so two runs of one key
	// are often in flight at once: each checks out its own state or builds
	// one, and every result equals a fresh state's. Run under -race.
	c := gen.CPU(gen.DefaultCPU())
	horizon := gen.CPUHorizon(gen.DefaultCPU(), 8)
	cfgs := []engine.Config{
		{Engine: "asynchronous", Workers: 1, Horizon: horizon},
		{Engine: "asynchronous", Workers: 2, Horizon: horizon},
	}
	refs := make([]outcome, len(cfgs))
	for i, cfg := range cfgs {
		refs[i] = freshOutcome(t, c, cfg)
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range 8 {
				k := (g + r) % len(cfgs)
				rec := trace.NewRecorder()
				cfg := cfgs[k]
				cfg.Probe = rec
				rep, err := engine.Run(context.Background(), c, cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if d := refs[k].diff(c, outcomeOf(rep, rec)); d != "" {
					t.Errorf("goroutine %d run %d (P=%d): %s", g, r, cfg.Workers, d)
				}
			}
		}()
	}
	wg.Wait()
	for _, cfg := range cfgs {
		key := stateKey(c, cfg)
		idle.Checkout[*sim](idle.Runs, key)
		if _, ok := idle.Checkout[*sim](idle.Runs, key); ok {
			t.Error("two idle run states hold one key")
		}
	}
}

func TestOneBuildPerKey(t *testing.T) {
	// Repeated runs, a second parse of the same netlist, the chandy-misra
	// discipline and GateLookahead all run on one build per key; another
	// worker count or NoLookahead is another key.
	var text bytes.Buffer
	if err := netlist.Write(&text, gen.GateMultiplier(gen.DefaultMultiplier())); err != nil {
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
	idle.Runs.Flush()
	built := func(label string, want int64, run func()) {
		t.Helper()
		before := builds.Load()
		run()
		if got := builds.Load() - before; got != want {
			t.Errorf("%s: %d builds, want %d", label, got, want)
		}
	}
	cfg := engine.Config{Workers: 1, Horizon: 128}
	built("five runs", 1, func() {
		for range 5 {
			simulate(t, "asynchronous", c, cfg)
		}
	})
	built("a second parse", 0, func() { simulate(t, "asynchronous", parse(), cfg) })
	built("chandy-misra", 0, func() { simulate(t, "chandy-misra", c, cfg) })
	built("gate lookahead", 0, func() {
		simulate(t, "asynchronous", c, engine.Config{Workers: 1, Horizon: 128, GateLookahead: true})
	})
	built("two workers, twice", 1, func() {
		for range 2 {
			simulate(t, "asynchronous", c, engine.Config{Workers: 2, Horizon: 128})
		}
	})
	built("no lookahead, twice", 1, func() {
		for range 2 {
			simulate(t, "asynchronous", c, engine.Config{Workers: 1, Horizon: 128, NoLookahead: true})
		}
	})
}

// keyedByState gives, per Element and Node field build reads, a mutation
// that must change the state key; readPerRun gives, per field a run reads
// from its own circuit, a mutation that keeps the key (the run reads it
// from the circuit it was given, not the one the state was built from);
// notReadByState lists the fields neither reads, with why.
var (
	keyedByState = map[string]func(c *circuit.Circuit){
		"Element.Kind": func(c *circuit.Circuit) { el(c, "and").Kind = circuit.KindOr },
		"Element.In": func(c *circuit.Circuit) {
			e := el(c, "and")
			e.In = slices.Clone(e.In)
			e.In[0], e.In[1] = e.In[1], e.In[0]
		},
		"Element.Out":  func(c *circuit.Circuit) { e := el(c, "and"); e.Out = slices.Clone(e.Out); e.Out[0] = c.ByName["x"] },
		"Element.Cost": func(c *circuit.Circuit) { el(c, "and").Cost += 50 },
		"Node.Width":   func(c *circuit.Circuit) { c.Nodes[c.ByName["spare"]].Width++ },
	}
	readPerRun = map[string]func(c *circuit.Circuit){
		"Element.Delay":  func(c *circuit.Circuit) { el(c, "and").Delay++ },
		"Element.Params": func(c *circuit.Circuit) { el(c, "ram").Params.Mem = []uint64{9, 8, 7, 6} },
	}
	notReadByState = map[string]string{
		"Element.ID":      "the element's index",
		"Element.Name":    "a label",
		"Node.ID":         "the node's index",
		"Node.Name":       "a label",
		"Node.Driver":     "Build derives it from the Out lists, which the structure digest covers",
		"Node.DriverPort": "Build derives it from the Out lists, which the structure digest covers",
		"Node.Fanout":     "Build derives it from the In lists, which the structure digest covers",
	}
)

func el(c *circuit.Circuit, name string) *circuit.Element { return &c.Elems[c.ElByName[name]] }

// keyCircuit has a clocked register, a RAM with contents and a gate, so
// that every field a run reads changes its outcome.
func keyCircuit() *circuit.Circuit {
	b := circuit.NewBuilder("key")
	clk, we, a, d, q, r, x, spare := b.Bit("clk"), b.Bit("we"), b.Node("a", 2), b.Node("d", 3), b.Node("q", 3), b.Node("r", 3), b.Bit("x"), b.Bit("spare")
	b.Clock("clock", clk, 10, 5, 5)
	b.Const("wegen", we, logic.V(1, 0))
	b.AddElement(circuit.KindGray, "agen", 1, []circuit.NodeID{a}, nil, circuit.Params{Period: 20})
	b.AddElement(circuit.KindGray, "dgen", 1, []circuit.NodeID{d}, nil, circuit.Params{Period: 15})
	b.AddElement(circuit.KindDFF, "ff", 1, []circuit.NodeID{q}, []circuit.NodeID{clk, d}, circuit.Params{})
	b.AddElement(circuit.KindRam, "ram", 2, []circuit.NodeID{r}, []circuit.NodeID{clk, we, a, q}, circuit.Params{Mem: []uint64{1, 2, 3, 4}})
	b.AddElement(circuit.KindRedXor, "rx", 1, []circuit.NodeID{x}, []circuit.NodeID{r}, circuit.Params{})
	b.Gate(circuit.KindAnd, "and", 1, spare, x, clk)
	return b.MustBuild()
}

func TestStateKeyCoversBuild(t *testing.T) {
	// Every exported field of Element and Node is in the state key —
	// mutating it changes the key — or read per run from the run's own
	// circuit — a mutated copy keeps the key, and its run on the original's
	// idle state equals its run on a fresh one — or listed as read by
	// neither. A new field that is none of these fails here.
	base := keyCircuit()
	// copyOf is a deep copy of base with no cached structure digest.
	copyOf := func() *circuit.Circuit {
		cp := base.Clone()
		return &circuit.Circuit{Name: cp.Name, Nodes: cp.Nodes, Elems: cp.Elems, ByName: cp.ByName, ElByName: cp.ElByName}
	}
	cfg := engine.Config{Engine: "asynchronous", Workers: 1, Horizon: 200}
	want := stateKey(base, cfg)
	if stateKey(copyOf(), cfg) != want {
		t.Fatal("an unmutated copy has another key")
	}
	for _, typ := range []reflect.Type{reflect.TypeFor[circuit.Element](), reflect.TypeFor[circuit.Node]()} {
		for i := range typ.NumField() {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			name := typ.Name() + "." + f.Name
			_, k := keyedByState[name]
			_, r := readPerRun[name]
			_, n := notReadByState[name]
			if k == r && r == n || k && r || r && n || k && n {
				t.Errorf("%s must be exactly one of keyed, read per run, or not read", name)
			}
		}
	}
	for name, mut := range keyedByState {
		c := copyOf()
		mut(c)
		if stateKey(c, cfg) == want {
			t.Errorf("mutating %s leaves the state key unchanged", name)
		}
	}
	for name, mut := range readPerRun {
		c := base.Clone() // runnable, and these fields leave the structure alone
		mut(c)
		if stateKey(c, cfg) != want {
			t.Errorf("mutating %s changes the state key", name)
			continue
		}
		fresh := freshOutcome(t, c, cfg)
		if d := fresh.diff(c, runOutcome(t, base, cfg)); d == "" {
			t.Errorf("mutating %s changes no outcome; the check would prove nothing", name)
		}
		runOutcome(t, base, cfg) // leaves base's state idle
		if d := fresh.diff(c, runOutcome(t, c, cfg)); d != "" {
			t.Errorf("mutated %s, run on the original's state: %s", name, d)
		}
	}
	for _, other := range []engine.Config{{Workers: 2}, {Workers: 1, NoLookahead: true}} {
		if stateKey(base, other) == want {
			t.Errorf("the state key leaves out %+v", other)
		}
	}
	if stateKey(base, engine.Config{Workers: 1, Horizon: 7, GateLookahead: true}) != want {
		t.Error("the horizon or GateLookahead changes the state key; build reads neither")
	}
}

package core

import (
	"testing"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/gen"
	"parsim/internal/logic"
)

// newSim returns a freshly built run state for c under cfg, started: what
// Run drives on a cache miss.
func newSim(c *circuit.Circuit, cfg engine.Config, e eng) *sim {
	s := build(c, cfg)
	s.start(c, cfg, e)
	return s
}

type simCase struct {
	c       *circuit.Circuit
	horizon circuit.Time
}

// benchCircuits are the paper circuits at the horizons bench/ simulates
// them to.
func benchCircuits() []simCase {
	return []simCase{
		{gen.GateMultiplier(gen.DefaultMultiplier()), 512},
		{gen.InverterArray(gen.DefaultInverterArray()), 128},
		{gen.CPU(gen.DefaultCPU()), gen.CPUHorizon(gen.DefaultCPU(), 16)},
	}
}

func TestOneWorkerCountsPinned(t *testing.T) {
	// One worker is deterministic, so the counts are exact. Model calls,
	// events and updates are the simulation itself and must never move;
	// activations are the scheduler's: on the feed-forward circuits every
	// element runs exactly once, with all its inputs already at the horizon,
	// and the microprocessor's registers cross each clock period in one
	// valid-time wave (a falling edge bounds no lookahead, and a mux runs
	// once its last input reaches its threshold).
	want := []struct {
		evals                     int64 // 0: one per non-generator element
		model, events, nodeUpdate int64
	}{
		{0, 40977, 47214, 29838},
		{0, 61696, 61696, 65280},
		{40688, 33644, 35363, 9482},
	}
	for i, bc := range benchCircuits() {
		elems := int64(len(bc.c.Elems) - len(bc.c.Generators()))
		r := simulate(t, "asynchronous", bc.c, engine.Config{Workers: 1, Horizon: bc.horizon}).Stats
		if w := want[i]; r.ModelCalls != w.model || r.EventsUsed != w.events || r.NodeUpdates != w.nodeUpdate {
			t.Errorf("%s: model calls/events/updates %d/%d/%d, want %d/%d/%d",
				bc.c.Name, r.ModelCalls, r.EventsUsed, r.NodeUpdates, w.model, w.events, w.nodeUpdate)
		}
		evals := want[i].evals
		if evals == 0 {
			evals = elems
		}
		if r.Evals != evals {
			t.Errorf("%s: %d activations, want %d", bc.c.Name, r.Evals, evals)
		}
		if again := simulate(t, "asynchronous", bc.c, engine.Config{Workers: 1, Horizon: bc.horizon}).Stats; again.Evals != r.Evals {
			t.Errorf("%s: activations differ between two one-worker runs: %d, %d", bc.c.Name, r.Evals, again.Evals)
		}
	}
}

// checkQuiescent asserts that no wake-up was lost: with every worker
// stopped and nothing pending, no ready set or queue holds an id, no
// element is left queued, none has a consumable event (one below its
// minimum input valid-time), and no minimum input valid-time has reached
// the threshold its element published.
func checkQuiescent(t *testing.T, s *sim, when string) {
	t.Helper()
	if !s.quiescent() {
		t.Fatalf("%s %s: activations pending after the workers returned", s.c.Name, when)
	}
	for _, w := range s.workers {
		if w.ready.n != 0 {
			t.Fatalf("%s %s: worker %d has %d elements ready at quiescence", s.c.Name, when, w.id, w.ready.n)
		}
		for _, q := range w.inbound {
			if e, ok := q.Pop(); ok {
				t.Fatalf("%s %s: id %d still on a queue to worker %d at quiescence", s.c.Name, when, e, w.id)
			}
		}
	}
	for i := range s.c.Elems {
		el := &s.c.Elems[i]
		if el.IsGenerator() {
			continue
		}
		if s.ctl[i].queued {
			t.Fatalf("%s %s: element %s left queued at quiescence", s.c.Name, when, el.Name)
		}
		minValid := int64(s.cfg.Horizon)
		for _, n := range el.In {
			if vt := s.hist[n].validTo.Load(); vt < minValid {
				minValid = vt
			}
		}
		if need := s.ctl[i].need.Load(); minValid >= need {
			t.Errorf("%s %s: element %s idle with inputs valid to %d, past its threshold %d",
				s.c.Name, when, el.Name, minValid, need)
		}
		for port, n := range el.In {
			// Walked here, not peeked: peek moves the cursor on.
			cu := &s.cursors[i][port]
			if cu.pos >= s.hist[n].count.Load() {
				continue
			}
			c := cu.chunk
			for cu.pos >= c.base+int64(len(c.slots)) {
				c = c.next
			}
			if ev := c.slots[cu.pos-c.base]; int64(ev.t) < minValid {
				t.Errorf("%s %s: element %s idle with an event at %d on port %d, inputs valid to %d",
					s.c.Name, when, el.Name, ev.t, port, minValid)
			}
		}
	}
}

func TestNoLostWakeups(t *testing.T) {
	cases := []simCase{
		{gen.CPU(gen.DefaultCPU()), gen.CPUHorizon(gen.DefaultCPU(), 4)},
		{gen.FeedbackChain(13), 400},
	}
	seeds := int64(40)
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(0); seed < seeds; seed++ {
		cases = append(cases, simCase{gen.RandomCircuit(seed, 80), 250})
	}
	modes := []struct {
		eng eng
		cfg engine.Config
	}{{async, engine.Config{}}, {async, engine.Config{NoLookahead: true}}, {chandyMisra, engine.Config{}}}
	for _, c := range cases {
		for _, m := range modes {
			for _, p := range []int{1, 2, 4} {
				m.cfg.Workers, m.cfg.Horizon = p, c.horizon
				s := newSim(c.c, m.cfg, m.eng)
				for round := 1; ; round++ {
					s.runWorkers()
					checkQuiescent(t, s, "after a round")
					if !m.eng.deadlockRecovery || !s.recoverDeadlock() {
						break
					}
					if round > 1<<20 {
						t.Fatalf("%s: deadlock recovery does not terminate", c.c.Name)
					}
				}
				if t.Failed() {
					t.Fatalf("%s: lost wake-up with %+v", c.c.Name, m)
				}
			}
		}
	}
}

func TestRecoveryRoundsSumIdleTime(t *testing.T) {
	// A feedback ring deadlocks over and over under the Chandy-Misra
	// discipline, and with two workers on a serial ring one of them starves
	// in most rounds. The report must carry the idle time of all rounds, not
	// of the last one only.
	res := simulate(t, "chandy-misra", gen.FeedbackChain(9), engine.Config{Workers: 2, Horizon: 2000})
	if res.Rounds < 20 {
		t.Fatalf("only %d rounds", res.Rounds)
	}
	var polls int64
	for w, row := range res.Stats.PerWorker {
		polls += row.IdlePolls
		if row.Idle < 0 || row.Idle > res.Stats.Wall || row.Idle+row.Busy != res.Stats.Wall {
			t.Errorf("worker %d: idle %v + busy %v, wall %v", w, row.Idle, row.Busy, res.Stats.Wall)
		}
		if row.IdlePolls > 0 && row.Idle <= 0 {
			t.Errorf("worker %d: %d idle polls but idle time %v", w, row.IdlePolls, row.Idle)
		}
	}
	if polls == 0 {
		t.Skip("no worker starved in any round; nothing to check")
	}
}

// runByHand runs every worker's ready set to empty, single-threaded, until
// no worker has anything left, then publishes each worker's pops as
// settled, as its starvation path would.
func runByHand(s *sim) {
	for busy := true; busy; {
		busy = false
		for _, w := range s.workers {
			w.drain()
			for e, ok := w.ready.pop(); ok; e, ok = w.ready.pop() {
				w.process(e)
				busy = true
			}
		}
	}
	for _, w := range s.workers {
		w.settled.Store(w.popped)
	}
}

func TestDuplicatePushDropped(t *testing.T) {
	// A foreign producer pushes an element its owner has queued already.
	// The owner must drop the popped id rather than queue the element
	// twice, the drop must settle the push at once, and the element must
	// still run exactly once.
	c := gen.InverterArray(gen.InverterArrayConfig{Rows: 2, Cols: 4, ActiveRows: 2, TogglePeriod: 2})
	s := newSim(c, engine.Config{Workers: 2, Horizon: 50}, async)
	owner := s.workers[1]
	e := circuit.ElemID(-1)
	for _, q := range owner.ready.buckets {
		if len(q) > 0 {
			e = q[0]
			break
		}
	}
	if e < 0 || !s.ctl[e].queued {
		t.Fatal("worker 1 has no element queued before the round")
	}
	ready, popped := owner.ready.n, owner.popped
	s.workers[0].activate(e)
	owner.drain()
	if owner.popped != popped+1 {
		t.Fatalf("owner counted %d pops for one pushed id", owner.popped-popped)
	}
	if owner.ready.n != ready {
		t.Fatalf("duplicate queued: %d elements ready, want %d", owner.ready.n, ready)
	}
	runByHand(s)
	if !s.quiescent() {
		t.Fatal("the dropped duplicate left the run unquiescent")
	}
	checkQuiescent(t, s, "after a dropped duplicate")
	if evals := s.workers[0].wc.Evals + owner.wc.Evals; evals != int64(len(c.Elems)-len(c.Generators())) {
		t.Errorf("%d activations, want one per element", evals)
	}
}

// onChange is a trace.Probe that calls f for every value change.
type onChange func(n circuit.NodeID, t circuit.Time, v logic.Value)

func (f onChange) OnChange(n circuit.NodeID, t circuit.Time, v logic.Value) { f(n, t, v) }

func TestSettleRecheckRequeues(t *testing.T) {
	// y = a AND b, with b published only up to 50 when the gate runs. While
	// the gate evaluates (after it loaded its inputs, before it stores
	// need), b's producer advances b to the horizon and tests the gate's
	// need: still the initial 1, so the advance crosses nothing and the
	// producer pushes nothing. Only the owner's re-check after its need
	// store (51) can see that the inputs have reached it.
	bld := circuit.NewBuilder("recheck")
	a, b, y := bld.Bit("a"), bld.Bit("b"), bld.Bit("y")
	bld.Clock("clk", a, 2, 0, 1)
	bld.Wave("wave", b, []circuit.Time{0, 70}, []logic.Value{logic.V(1, 1), logic.V(1, 0)})
	gate := bld.Gate(circuit.KindAnd, "and", 1, y, a, b)
	c := bld.MustBuild()

	armed, fired, pushed := false, false, false
	var s *sim
	probe := onChange(func(n circuit.NodeID, _ circuit.Time, _ logic.Value) {
		if !armed || n != y || fired {
			return
		}
		fired = true
		s.hist[b].setValid(100)
		s.workers[0].wake(b, 50, 100)
		pushed = s.ctl[gate].queued
	})
	s = newSim(c, engine.Config{Workers: 1, Horizon: 100, Probe: probe}, async)
	w := s.workers[0]
	s.hist[b].validTo.Store(50) // published events at 0 and 70, behaviour known below 50
	armed = true
	if e, ok := w.ready.pop(); !ok || e != gate {
		t.Fatalf("popped %d, %v; want the gate queued", e, ok)
	}
	w.process(gate)
	if !fired {
		t.Fatal("the gate changed no output; the interleaving was not forced")
	}
	if pushed {
		t.Fatal("the producer activated the gate: its need test did not see the stale threshold")
	}
	if need := s.ctl[gate].need.Load(); need != 51 {
		t.Fatalf("need %d after the first activation, want 51", need)
	}
	if !s.ctl[gate].queued || w.ready.n != 1 {
		t.Fatal("inputs valid to 100 past need 51, and the gate was not queued again")
	}
	armed = false
	s.runWorkers()
	checkQuiescent(t, s, "after the re-queued activation")
	if w.wc.Evals != 2 {
		t.Errorf("%d activations, want 2", w.wc.Evals)
	}
}

func TestLookaheadSkipsFallingEdges(t *testing.T) {
	// A register's data input d is known only below 15 when it runs, its
	// clock to the horizon, so its output is valid up to the first pending
	// trigger event that can change it, plus its delay: a falling clock
	// edge, or a dffr's reset going low, cannot; a rising edge, a clock
	// event to X, and a reset going high can.
	L, H, X := logic.V(1, 0), logic.V(1, 1), logic.AllX(1)
	cases := []struct {
		name      string
		clk, rst  []logic.Value // at 0, 10, 20, 30; rst nil: a dff
		wantValid int64
	}{
		{"dff falling edge", []logic.Value{L, H, L, H}, nil, 31},
		{"dff clock to X", []logic.Value{L, H, X, H}, nil, 21},
		{"dffr falling edge", []logic.Value{L, H, L, H}, []logic.Value{H, L, L, L}, 31},
		{"dffr reset high", []logic.Value{L, H, L, H}, []logic.Value{L, L, H, L}, 21},
	}
	for _, tc := range cases {
		bld := circuit.NewBuilder("edges")
		clk, d, q := bld.Bit("clk"), bld.Bit("d"), bld.Bit("q")
		times := []circuit.Time{0, 10, 20, 30}
		bld.Wave("clkgen", clk, times, tc.clk)
		bld.Wave("dgen", d, []circuit.Time{0, 5}, []logic.Value{L, H})
		var ff circuit.ElemID
		if tc.rst == nil {
			ff = bld.AddElement(circuit.KindDFF, "ff", 1, []circuit.NodeID{q}, []circuit.NodeID{clk, d}, circuit.Params{})
		} else {
			rst := bld.Bit("rst")
			bld.Wave("rstgen", rst, times, tc.rst)
			ff = bld.AddElement(circuit.KindDFFR, "ff", 1, []circuit.NodeID{q}, []circuit.NodeID{clk, rst, d}, circuit.Params{Init: L})
		}
		c := bld.MustBuild()
		s := newSim(c, engine.Config{Workers: 1, Horizon: 100}, async)
		s.hist[d].validTo.Store(15) // events at 0 and 5 published, behaviour known below 15
		s.workers[0].process(ff)
		if got := s.hist[q].validTo.Load(); got != tc.wantValid {
			t.Errorf("%s: output valid to %d, want %d", tc.name, got, tc.wantValid)
		}
		if need := s.ctl[ff].need.Load(); need != tc.wantValid {
			t.Errorf("%s: need %d, want %d, one past the bounding trigger event", tc.name, need, tc.wantValid)
		}
	}
}

func TestNeverRunElementWakesOnFirstAdvance(t *testing.T) {
	// and = g AND b and b = NOT and form a loop that starts at valid-time 0,
	// and no generator feeds the AND gate directly: only g's first advance
	// can start it. Its other input b waits on the loop, so a wake-up that
	// waited for every input to reach the gate's threshold would never
	// come, and the run would stall. An element that has never run is woken
	// by the crossing alone.
	bld := circuit.NewBuilder("zero-valid-loop")
	w, g, a, b := bld.Bit("w"), bld.Bit("g"), bld.Bit("a"), bld.Bit("b")
	bld.Wave("wave", w, []circuit.Time{0, 7, 20}, []logic.Value{logic.V(1, 1), logic.V(1, 0), logic.V(1, 1)})
	bld.Gate(circuit.KindBuf, "buf", 1, g, w)
	bld.Gate(circuit.KindAnd, "and", 1, a, g, b)
	bld.Gate(circuit.KindNot, "not", 1, b, a)
	c := bld.MustBuild()
	for _, p := range []int{1, 2} {
		crossCheck(t, c, 60, engine.Config{Workers: p})
	}
}

package core

import (
	"testing"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/gen"
	"parsim/internal/logic"
)

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
	// element runs exactly once, with all its inputs already at the horizon.
	want := []struct {
		maxEvals                  int64 // 0: one per non-generator element
		model, events, nodeUpdate int64
	}{
		{0, 40977, 47214, 29838},
		{0, 61696, 61696, 65280},
		{125000, 33644, 35363, 9482},
	}
	for i, bc := range benchCircuits() {
		elems := int64(len(bc.c.Elems) - len(bc.c.Generators()))
		r := simulate(t, "asynchronous", bc.c, engine.Config{Workers: 1, Horizon: bc.horizon}).Stats
		if w := want[i]; r.ModelCalls != w.model || r.EventsUsed != w.events || r.NodeUpdates != w.nodeUpdate {
			t.Errorf("%s: model calls/events/updates %d/%d/%d, want %d/%d/%d",
				bc.c.Name, r.ModelCalls, r.EventsUsed, r.NodeUpdates, w.model, w.events, w.nodeUpdate)
		}
		switch max := want[i].maxEvals; {
		case max == 0 && r.Evals != elems:
			t.Errorf("%s: %d activations for %d elements, want one each", bc.c.Name, r.Evals, elems)
		case max > 0 && (r.Evals < elems || r.Evals > max):
			t.Errorf("%s: %d activations, want %d..%d", bc.c.Name, r.Evals, elems, max)
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
			cu := s.cursors[i][port] // a copy: peek moves the chunk pointer
			if ev, ok := cu.peek(s.hist[n].count.Load()); ok && int64(ev.t) < minValid {
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

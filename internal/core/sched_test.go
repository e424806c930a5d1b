package core

import (
	"testing"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/gen"
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
		r := simulate(t, "asynchronous", bc.c, engine.Config{Workers: 1, Horizon: bc.horizon}).Run
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
		if again := simulate(t, "asynchronous", bc.c, engine.Config{Workers: 1, Horizon: bc.horizon}).Run; again.Evals != r.Evals {
			t.Errorf("%s: activations differ between two one-worker runs: %d, %d", bc.c.Name, r.Evals, again.Evals)
		}
	}
}

// checkQuiescent asserts that no wake-up was lost: with every worker
// stopped and nothing pending, each element is idle, has no consumable
// event (one below its minimum input valid-time), and the minimum input
// valid-time has not reached the threshold it published.
func checkQuiescent(t *testing.T, s *sim, when string) {
	t.Helper()
	if !s.quiescent() {
		t.Fatalf("%s %s: activations pending after the workers returned", s.c.Name, when)
	}
	for i := range s.c.Elems {
		el := &s.c.Elems[i]
		if el.IsGenerator() {
			continue
		}
		if st := s.ctl[i].state.Load(); st != stIdle {
			t.Fatalf("%s %s: element %s in state %d at quiescence", s.c.Name, when, el.Name, st)
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
	for w, row := range res.Run.PerWorker {
		polls += row.IdlePolls
		if row.Idle < 0 || row.Idle > res.Run.Wall || row.Idle+row.Busy != res.Run.Wall {
			t.Errorf("worker %d: idle %v + busy %v, wall %v", w, row.Idle, row.Busy, res.Run.Wall)
		}
		if row.IdlePolls > 0 && row.Idle <= 0 {
			t.Errorf("worker %d: %d idle polls but idle time %v", w, row.IdlePolls, row.Idle)
		}
	}
	if polls == 0 {
		t.Skip("no worker starved in any round; nothing to check")
	}
}

package vector

import (
	"context"
	"fmt"
	"testing"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/gen"
	"parsim/internal/logic"
)

// dffRing is a Johnson-style feedback ring of width-4 resettable
// flip-flops: every stage sits on one sequential loop (schedule level -1 or
// just above it), and a random operand XORed into the loop makes the lanes
// of a batched run diverge.
func dffRing(stages int) *circuit.Circuit {
	b := circuit.NewBuilder(fmt.Sprintf("dff-ring-%d", stages))
	clk, rst := b.Bit("clk"), b.Bit("rst")
	b.Clock("osc", clk, 4, 0, 0)
	b.Wave("rstgen", rst, []circuit.Time{0, 6}, []logic.Value{logic.V(1, 1), logic.V(1, 0)})
	rnd := b.Node("rnd", 4)
	b.Rand("rndgen", rnd, 8, 3)
	d := b.Node("d0", 4)
	prev := d
	for i := 0; i < stages; i++ {
		q := b.Node(fmt.Sprintf("q%d", i), 4)
		b.AddElement(circuit.KindDFFR, fmt.Sprintf("ff%d", i), 1, []circuit.NodeID{q},
			[]circuit.NodeID{clk, rst, prev}, circuit.Params{Init: logic.V(4, uint64(i)&15)})
		prev = q
	}
	inv := b.Node("inv", 4)
	b.Gate(circuit.KindNot, "loopinv", 1, inv, prev)
	b.Gate(circuit.KindXor, "mix", 1, d, inv, rnd)
	return b.MustBuild()
}

type scheduleCircuit struct {
	build   func() *circuit.Circuit
	horizon circuit.Time
}

func scheduleCircuits() map[string]scheduleCircuit {
	mult := gen.DefaultMultiplier()
	mult.InPeriod = 24
	return map[string]scheduleCircuit{
		"mult16-gate":    {func() *circuit.Circuit { return gen.GateMultiplier(mult) }, 80},
		"microprocessor": {func() *circuit.Circuit { return gen.CPU(gen.DefaultCPU()) }, 200},
		"dff-ring":       {func() *circuit.Circuit { return dffRing(9) }, 120},
	}
}

func sameValues(a, b []logic.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestGangScheduleMatchesCompiled pins the one-barrier-per-step schedule
// under all three registry names: at every worker count and lane width the
// core produces the sequential reference's final values in lane 0, with at
// most compiled mode's evaluation count (the selective trace skips idle
// blocks; compiled evaluates every element every step), the one-worker
// run's every lane and update count, and each worker row crosses exactly
// one barrier per step.
func TestGangScheduleMatchesCompiled(t *testing.T) {
	for name, sc := range scheduleCircuits() {
		scalar := mustRun(t, "sequential", sc.build(), engine.Config{Horizon: sc.horizon})
		every := mustRun(t, "compiled", sc.build(), engine.Config{Workers: 1, Horizon: sc.horizon})
		for _, lanes := range []int{1, 64, 256} {
			ref := mustRun(t, "vector", sc.build(), engine.Config{Workers: 1, Horizon: sc.horizon, Lanes: lanes})
			if lanes == 1 && ref.Stats.NodeUpdates != scalar.Stats.NodeUpdates {
				t.Fatalf("%s: reference engines disagree on updates: %d vs %d", name, ref.Stats.NodeUpdates, scalar.Stats.NodeUpdates)
			}
			engs := []string{"vector", "jit"}
			if lanes == 1 {
				engs = append(engs, "compiled")
			}
			for _, eng := range engs {
				for workers := 1; workers <= 4; workers++ {
					res, err := engine.Run(context.Background(), sc.build(), engine.Config{
						Engine: eng, Workers: workers, Horizon: sc.horizon, Lanes: lanes,
					})
					if err != nil {
						t.Fatal(err)
					}
					tag := fmt.Sprintf("%s %s workers %d lanes %d", name, eng, workers, lanes)
					if !sameValues(res.Final, scalar.Final) {
						t.Errorf("%s: lane 0 final values differ from the sequential reference", tag)
					}
					if res.Stats.Evals > every.Stats.Evals || eng == "compiled" && res.Stats.Evals != every.Stats.Evals {
						t.Errorf("%s: evals %d, against compiled's %d at one worker", tag, res.Stats.Evals, every.Stats.Evals)
					}
					if res.Stats.NodeUpdates != ref.Stats.NodeUpdates {
						t.Errorf("%s: node updates %d, want %d", tag, res.Stats.NodeUpdates, ref.Stats.NodeUpdates)
					}
					if eng != "compiled" && !res.LaneFinal.Equal(ref.LaneFinal) {
						t.Errorf("%s: lane final values differ from the one-worker run", tag)
					}
					for w, row := range res.Stats.PerWorker {
						if row.BarrierWaits != res.Stats.TimeSteps-1 {
							t.Errorf("%s: worker %d crossed %d barriers in %d steps, want one per step",
								tag, w, row.BarrierWaits, res.Stats.TimeSteps)
						}
					}
				}
			}
		}
	}
}

// TestBenchCountsPinned pins the plane core's work counters on the
// benchmark's circuits at the benchmark's horizons, under both registry
// names, at 1/64/256 lanes and 1/2 workers. Evals follows the selective
// trace's block rule: every element at step 0, then at each step the
// elements of every schedule block holding an element whose input changed
// at the step before, in any lane including the dead lanes of a partial
// plane word. So it moves with the lane count (the microprocessor's
// 64- and 256-lane runs agree: all their lanes are live) and with the
// worker count, whose stripe boundaries cut some level slices into more,
// smaller blocks. A node update is a step on which any live lane of the
// node changed. The microprocessor drives the same stimulus into every
// lane, so its updates do not grow with the lane count. A compiled run
// evaluates every element but the generators at every step after the
// first, at either worker count: Algorithm 2's count.
func TestBenchCountsPinned(t *testing.T) {
	cpu := gen.DefaultCPU()
	type key struct{ lanes, workers int }
	for _, pc := range []struct {
		name     string
		c        *circuit.Circuit
		horizon  circuit.Time
		evals    map[key]int64
		updates  map[int]int64 // by lane count
		compiled int64         // a compiled run's evals; its updates are the one-lane count
	}{
		{"mult16-gate", gen.GateMultiplier(gen.DefaultMultiplier()), 512,
			map[key]int64{
				{1, 1}: 124917, {1, 2}: 124861,
				{64, 1}: 224308, {64, 2}: 224220,
				{256, 1}: 229331, {256, 2}: 229243,
			},
			map[int]int64{1: 29838, 64: 141452, 256: 163719}, 1236109},
		{"microprocessor", gen.CPU(cpu), gen.CPUHorizon(cpu, 16),
			map[key]int64{
				{1, 1}: 73769, {1, 2}: 73751,
				{64, 1}: 69752, {64, 2}: 69734,
				{256, 1}: 69752, {256, 2}: 69734,
			},
			map[int]int64{1: 9482, 64: 9482, 256: 9482}, 2552515},
	} {
		for workers := 1; workers <= 2; workers++ {
			rep := mustRun(t, "compiled", pc.c, engine.Config{Workers: workers, Horizon: pc.horizon})
			if rep.Stats.Evals != pc.compiled || rep.Stats.NodeUpdates != pc.updates[1] {
				t.Errorf("%s compiled workers %d: evals %d updates %d, want %d and %d", pc.name,
					workers, rep.Stats.Evals, rep.Stats.NodeUpdates, pc.compiled, pc.updates[1])
			}
		}
		for _, eng := range []string{"jit", "vector"} {
			for _, lanes := range []int{1, 64, 256} {
				for workers := 1; workers <= 2; workers++ {
					rep := mustRun(t, eng, pc.c, engine.Config{Workers: workers, Horizon: pc.horizon, Lanes: lanes})
					want := pc.evals[key{lanes, workers}]
					if rep.Stats.Evals != want || rep.Stats.NodeUpdates != pc.updates[lanes] {
						t.Errorf("%s %s lanes %d workers %d: evals %d updates %d, want %d and %d", pc.name, eng,
							lanes, workers, rep.Stats.Evals, rep.Stats.NodeUpdates, want, pc.updates[lanes])
					}
				}
			}
		}
	}
}

// TestWorkerStripesContiguous is the layout property the schedule rests on:
// the planes a worker writes (its elements' and generators' outputs) form
// one contiguous range of the program layout, disjoint from every other worker's,
// and the cost-balanced cut leaves no worker without work on the circuits
// big enough to split.
func TestWorkerStripesContiguous(t *testing.T) {
	for name, sc := range scheduleCircuits() {
		c := sc.build()
		for p := 1; p <= 4; p++ {
			prog := compileProgram(c, p, 64, 1)
			type stripe struct{ lo, hi, planes int32 }
			stripes := make([]stripe, p)
			for w := range stripes {
				stripes[w].lo = int32(prog.total)
			}
			note := func(w int, sp span) {
				s := &stripes[w]
				s.lo, s.hi = min(s.lo, sp.off), max(s.hi, sp.off+sp.w)
				s.planes += sp.w
			}
			for w := 0; w < p; w++ {
				for i := range prog.gens[w] {
					note(w, prog.gens[w][i].out)
				}
				for sl := range prog.work[w] {
					for _, sp := range prog.work[w][sl].spans {
						note(w, sp)
					}
				}
			}
			prevHi := int32(0)
			for w, s := range stripes {
				if s.planes == 0 {
					if c.NumGates() >= 4*p {
						t.Errorf("%s p=%d: worker %d owns nothing", name, p, w)
					}
					continue
				}
				if s.hi-s.lo != s.planes {
					t.Errorf("%s p=%d: worker %d writes %d planes spread over [%d,%d)", name, p, w, s.planes, s.lo, s.hi)
				}
				if s.lo < prevHi {
					t.Errorf("%s p=%d: worker %d stripe [%d,%d) overlaps a lower worker's, which ends at %d",
						name, p, w, s.lo, s.hi, prevHi)
				}
				prevHi = s.hi
			}
		}
	}
}

package vector

import (
	"fmt"
	"testing"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/logic"
)

// twoChains is two independent chains of depth unit-delay gates: a chain of
// inverters fed by input a, which steps from L to H at toggleAt (never when
// toggleAt is 0), and a chain of buffers fed by a constant input z. The
// chains lower to different batch shapes, so no schedule block holds
// elements of both.
func twoChains(depth int, toggleAt circuit.Time) *circuit.Circuit {
	b := circuit.NewBuilder("two-chains")
	a, z := b.Bit("a"), b.Bit("z")
	if toggleAt > 0 {
		b.Wave("agen", a, []circuit.Time{0, toggleAt}, []logic.Value{logic.V(1, 0), logic.V(1, 1)})
	} else {
		b.Wave("agen", a, []circuit.Time{0}, []logic.Value{logic.V(1, 0)})
	}
	b.Wave("zgen", z, []circuit.Time{0}, []logic.Value{logic.V(1, 0)})
	prevA, prevZ := a, z
	for i := 0; i < depth; i++ {
		na, nz := b.Bit(fmt.Sprintf("a%d", i)), b.Bit(fmt.Sprintf("z%d", i))
		b.Gate(circuit.KindNot, fmt.Sprintf("inv%d", i), 1, na, prevA)
		b.Gate(circuit.KindBuf, fmt.Sprintf("buf%d", i), 1, nz, prevZ)
		prevA, prevZ = na, nz
	}
	return b.MustBuild()
}

// TestSelectiveTraceRunsOnlyTheCone pins the block rule on two deep
// independent chains of one-element blocks, one of whose inputs toggles
// once: step 0 runs every block; the reset X then clears one level per
// step down each chain, running each level's block once (the level-1
// gates settled at step 0, so levels 2..depth run); the toggle then runs
// exactly its own chain's blocks, each once. The idle chain's blocks never
// run after they settle. Lanes and workers change none of it.
func TestSelectiveTraceRunsOnlyTheCone(t *testing.T) {
	const depth, toggleAt, horizon = 40, 60, 160
	want := int64(2*depth + 2*(depth-1) + depth)
	for _, lanes := range []int{1, 64} {
		for workers := 1; workers <= 2; workers++ {
			cfg := engine.Config{Workers: workers, Horizon: horizon, Lanes: lanes}
			c := twoChains(depth, toggleAt)
			res := mustRun(t, "jit", c, cfg)
			ref := mustRun(t, "sequential", c, engine.Config{Workers: 1, Horizon: horizon})
			if !sameValues(res.Final, ref.Final) {
				t.Fatalf("lanes %d workers %d: final values differ from the sequential reference", lanes, workers)
			}
			if res.Stats.Evals != want {
				t.Errorf("lanes %d workers %d: evals %d, want %d (2x%d sweep + 2x%d settle + %d cone)",
					lanes, workers, res.Stats.Evals, want, depth, depth-1, depth)
			}
			idle := mustRun(t, "jit", twoChains(depth, 0), cfg)
			if got := res.Stats.Evals - idle.Stats.Evals; got != depth {
				t.Errorf("lanes %d workers %d: the toggle ran %d elements, want its %d-deep cone", lanes, workers, got, depth)
			}
		}
	}
}

// TestSelectiveTraceNeedsEveryFanoutEdge is the cone test's control: with
// one edge of the fan-out table dropped — inverter 20's block no longer
// marks inverter 21's — the toggle stops at inverter 21, and the final
// values no longer match the sequential reference's.
func TestSelectiveTraceNeedsEveryFanoutEdge(t *testing.T) {
	const depth, toggleAt, horizon = 40, 60, 160
	c := twoChains(depth, toggleAt)
	cfg := engine.Config{Workers: 1, Horizon: horizon, Lanes: 1, LaneStride: 1}
	ref := mustRun(t, "sequential", c, engine.Config{Workers: 1, Horizon: horizon})

	prog := compileProgram(c, cfg.Workers, cfg.Lanes, cfg.LaneStride)
	elem := func(name string) circuit.ElemID {
		for i := range c.Elems {
			if c.Elems[i].Name == name {
				return circuit.ElemID(i)
			}
		}
		t.Fatalf("no element %s", name)
		return 0
	}
	from, to := prog.elemBlock[elem("inv20")], prog.elemBlock[elem("inv21")]
	b := &prog.blocks[0][from-prog.base[0]]
	dropped := false
	for k := b.fanLo; k < b.fanHi; k++ {
		if prog.fanBlock[k] == to {
			prog.fanMask[k], dropped = 0, true
		}
	}
	if !dropped {
		t.Fatal("the fan-out table has no edge from inverter 20's block to inverter 21's")
	}
	res, err := jitEng.runProgram(newMachine(prog, cfg.Workers, 1), c, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sameValues(res.Final, ref.Final) {
		t.Fatal("final values match the sequential reference with a fan-out edge dropped: the cone test cannot see a missing edge")
	}
}

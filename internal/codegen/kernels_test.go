// Package codegen_test is the registry-level conformance suite of the
// "jit" name (alias "codegen"). The engine itself is the levelized plane
// core in internal/vector, whose own tests prove every lowering white-box,
// lane-parallel; this directory holds no code and drives the same truth
// tables through the registry instead — stimulus generators, the compiled
// program, the gang step loop, update accounting and the probe — one input
// combination per time step.
package codegen_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/logic"
	"parsim/internal/trace"

	_ "parsim/internal/vector"
)

var allStates = []logic.State{logic.L, logic.H, logic.X, logic.Z}

// codegenShape is one port configuration of a kind to prove through the
// engine: input node widths, output node widths, params.
type codegenShape struct {
	ins    []int
	outs   []int
	params circuit.Params
}

// codegenShapes maps every evaluating kind to the shapes it is proven
// over. Generator kinds map to nil: they are the stimulus here.
// proveAllAtWidth walks circuit.AllKinds(), so a kind added to the
// registry without an entry fails the suite.
var codegenShapes = map[circuit.Kind][]codegenShape{
	circuit.KindBuf: {
		{ins: []int{1}, outs: []int{1}},
		{ins: []int{3}, outs: []int{3}},
	},
	circuit.KindNot: {
		{ins: []int{1}, outs: []int{1}},
		{ins: []int{3}, outs: []int{3}},
	},
	circuit.KindAnd:  gate2Shapes(),
	circuit.KindOr:   gate2Shapes(),
	circuit.KindNand: gate2Shapes(),
	circuit.KindNor:  gate2Shapes(),
	circuit.KindXor:  gate2Shapes(),
	circuit.KindXnor: gate2Shapes(),
	circuit.KindMux2: {
		{ins: []int{1, 1, 1}, outs: []int{1}},
		{ins: []int{1, 2, 2}, outs: []int{2}},
	},
	circuit.KindDFF: {
		{ins: []int{1, 1}, outs: []int{1}},
		{ins: []int{1, 2}, outs: []int{2}},
	},
	circuit.KindDFFR: {
		{ins: []int{1, 1, 1}, outs: []int{1}, params: circuit.Params{Init: logic.V(1, 1)}},
	},
	circuit.KindLatch: {
		{ins: []int{1, 1}, outs: []int{1}},
	},
	circuit.KindTri: {
		{ins: []int{1, 1}, outs: []int{1}},
	},
	circuit.KindRes2: {
		{ins: []int{1, 1}, outs: []int{1}},
	},
	circuit.KindConst: nil, // generator
	circuit.KindAdd: {
		{ins: []int{1, 1}, outs: []int{1}},
		{ins: []int{2, 2}, outs: []int{2}},
	},
	circuit.KindAddC: {
		{ins: []int{2, 2, 1}, outs: []int{2, 1}},
	},
	circuit.KindSub: {
		{ins: []int{2, 2}, outs: []int{2}},
	},
	circuit.KindMul: {
		{ins: []int{2, 2}, outs: []int{3}},
	},
	circuit.KindEq: {
		{ins: []int{2, 2}, outs: []int{1}},
	},
	circuit.KindLtU: {
		{ins: []int{2, 2}, outs: []int{1}},
	},
	circuit.KindSlice: {
		{ins: []int{4}, outs: []int{2}, params: circuit.Params{Lo: 1}},
	},
	circuit.KindExt: {
		{ins: []int{2}, outs: []int{4}},
	},
	circuit.KindConcat: {
		{ins: []int{2, 2}, outs: []int{4}},
	},
	circuit.KindShlK: {
		{ins: []int{4}, outs: []int{4}, params: circuit.Params{Shift: 1}},
	},
	circuit.KindShrK: {
		{ins: []int{4}, outs: []int{4}, params: circuit.Params{Shift: 1}},
	},
	circuit.KindRedAnd: {{ins: []int{3}, outs: []int{1}}},
	circuit.KindRedOr:  {{ins: []int{3}, outs: []int{1}}},
	circuit.KindRedXor: {{ins: []int{3}, outs: []int{1}}},
	circuit.KindAlu: {
		{ins: []int{3, 2, 2}, outs: []int{2}},
	},
	circuit.KindRom: {
		{ins: []int{2}, outs: []int{2}, params: circuit.Params{Mem: []uint64{1, 2, 3}}},
	},
	circuit.KindRam: {
		{ins: []int{1, 1, 2, 2}, outs: []int{2}, params: circuit.Params{Mem: []uint64{3}}},
	},
	circuit.KindClock: nil, // generator
	circuit.KindWave:  nil, // generator
	circuit.KindRand:  nil, // generator
	circuit.KindGray:  nil, // generator
}

// gate2Shapes covers a variadic gate kind's lowering ladder: the fused
// 2-input single-bit and multi-bit forms and the 3-input fold kernel.
func gate2Shapes() []codegenShape {
	return []codegenShape{
		{ins: []int{1, 1}, outs: []int{1}},
		{ins: []int{2, 2}, outs: []int{2}},
		{ins: []int{1, 1, 1}, outs: []int{1}},
	}
}

// valueFromIndex decodes an enumeration index into a width-w four-state
// value, two index bits per bit position.
func valueFromIndex(w int, idx uint64) logic.Value {
	states := make([]logic.State, w)
	for b := range states {
		states[b] = allStates[idx>>uint(2*b)&3]
	}
	return logic.FromStates(states)
}

// TestCodegenKernelsMatchScalarExhaustive proves every kind, run as the jit
// engine at one machine word (64 lanes), against the element's scalar
// registry evaluation over all four-state input combinations, plus random
// multi-step sequences for stateful kinds.
func TestCodegenKernelsMatchScalarExhaustive(t *testing.T) {
	proveAllAtWidth(t, 64)
}

// TestWideCodegenKernelsMatchScalarExhaustive is the multi-word (256-lane)
// run of the same proof; a separate function so `make wide-test` (-run
// Wide) exercises it in isolation.
func TestWideCodegenKernelsMatchScalarExhaustive(t *testing.T) {
	proveAllAtWidth(t, 256)
}

// TestScalarCodegenKernelsMatchExhaustive pins the one-lane engine, where
// the table kinds (mul/alu/rom/ram) lower through the scalar registry
// kernel instead of their bit-sliced forms.
func TestScalarCodegenKernelsMatchExhaustive(t *testing.T) {
	proveAllAtWidth(t, 1)
}

func proveAllAtWidth(t *testing.T, lanes int) {
	for _, kind := range circuit.AllKinds() {
		shapes, listed := codegenShapes[kind]
		if !listed || (shapes == nil && !circuit.IsGenerator(kind)) {
			t.Errorf("kind %s has no proof shape; add one to codegenShapes", circuit.KindName(kind))
		}
		for si, sh := range shapes {
			t.Run(fmt.Sprintf("lanes%d/%s/%d", lanes, circuit.KindName(kind), si), func(t *testing.T) {
				proveThroughEngine(t, kind, sh, lanes)
			})
		}
	}
}

// proveThroughEngine builds the one-element circuit with every input
// driven by a wave generator that steps through all four-state input
// combinations, one per time step, followed by random steps so a stateful
// kind's edges and holds are exercised; runs it as "jit" with the probe on
// the first and on the last lane; and checks the dut's recorded output at
// every step against the scalar registry carrying its own element state.
// Wave stimulus is lane-invariant, so every lane must end where the probed
// one does.
func proveThroughEngine(t *testing.T, kind circuit.Kind, sh codegenShape, lanes int) {
	totalBits := 0
	for _, w := range sh.ins {
		totalBits += 2 * w
	}
	combos := 1 << uint(totalBits)
	steps := combos + 96
	rng := rand.New(rand.NewSource(int64(kind)*7919 + int64(totalBits) + int64(lanes)))

	// stim[i][s] is input i at step s: combination s, random past the
	// exhaustive prefix.
	times := make([]circuit.Time, steps)
	stim := make([][]logic.Value, len(sh.ins))
	for s := range times {
		times[s] = circuit.Time(s)
		idx := uint64(s)
		if s >= combos {
			idx = rng.Uint64() % uint64(combos)
		}
		for i, w := range sh.ins {
			stim[i] = append(stim[i], valueFromIndex(w, idx))
			idx >>= uint(2 * w)
		}
	}

	b := circuit.NewBuilder("codegen-" + circuit.KindName(kind))
	var ins, outs []circuit.NodeID
	for i, w := range sh.ins {
		n := b.Node(fmt.Sprintf("in%d", i), w)
		b.Wave(fmt.Sprintf("drv%d", i), n, times, stim[i])
		ins = append(ins, n)
	}
	for i, w := range sh.outs {
		outs = append(outs, b.Node(fmt.Sprintf("out%d", i), w))
	}
	b.AddElement(kind, "dut", 1, outs, ins, sh.params)
	c, err := b.Build()
	if err != nil {
		t.Fatalf("build %v %v: %v", kind, sh, err)
	}
	el := &c.Elems[c.ElByName["dut"]]

	probeLanes := []int{0}
	if lanes > 1 {
		probeLanes = append(probeLanes, lanes-1)
	}
	for _, lane := range probeLanes {
		rec := trace.NewRecorderFor(outs...)
		rep, err := engine.Run(context.Background(), c, engine.Config{
			Engine: "jit", Workers: 1, Horizon: circuit.Time(steps + 1), Lanes: lanes, ProbeLane: lane, Probe: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		state := make([]logic.Value, el.NumStateVals())
		el.InitState(state)
		in := make([]logic.Value, len(ins))
		want := make([]logic.Value, len(outs))
		for s := 0; s < steps; s++ {
			for i := range in {
				in[i] = stim[i][s]
			}
			el.Eval(in, state, want)
			for oi, n := range outs {
				if got := rec.ValueAt(c, n, circuit.Time(s+1)); got != want[oi] {
					t.Fatalf("lanes %d lane %d step %d in=%v: out %d = %v, want %v",
						lanes, lane, s, in, oi, got, want[oi])
				}
			}
		}
		for l := 0; l < rep.LaneFinal.Lanes(); l++ {
			for n := range c.Nodes {
				if got := rep.LaneFinal.At(l, n); got != rep.Final[n] {
					t.Fatalf("lanes %d: lane %d ends node %q at %v, probe lane %d at %v",
						lanes, l, c.Nodes[n].Name, got, lane, rep.Final[n])
				}
			}
		}
	}
}

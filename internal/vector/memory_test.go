package vector

import (
	"fmt"
	"math/rand"
	"testing"

	"parsim/internal/circuit"
	"parsim/internal/logic"
)

// TestWideMemoryDecode proves the ROM and RAM address walk where the
// truth tables cannot reach: 8-bit addresses, every lane on a different
// address at once (all 256 distinct at 256 lanes), X and Z address bits,
// ROM entries past the contents and writes at unknown addresses. Every
// lane is checked at every step against Element.Eval with its own state.
func TestWideMemoryDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	rom := make([]uint64, 200) // entries 200..255 are out of range
	for i := range rom {
		rom[i] = rng.Uint64() & 15
	}
	ram := make([]uint64, 100)
	for i := range ram {
		ram[i] = rng.Uint64() & 15
	}
	shapes := map[circuit.Kind]kernelShape{
		circuit.KindRom: {ins: []int{8}, outs: []int{4}, params: circuit.Params{Mem: rom}},
		circuit.KindRam: {ins: []int{1, 1, 8, 4}, outs: []int{4}, params: circuit.Params{Mem: ram}},
	}
	for _, lanes := range []int{64, 256} {
		for kind, sh := range shapes {
			t.Run(fmt.Sprintf("%s/lanes%d", circuit.KindName(kind), lanes), func(t *testing.T) {
				proveMemory(t, kind, sh, lanes, rand.New(rand.NewSource(int64(lanes)+int64(kind))))
			})
		}
	}
}

// memoryInputs draws one step's inputs for every lane: a fresh permutation
// of the 256 addresses, about one lane in eight with an X or Z address
// bit, and for a RAM a clock that rises every other step, a write enable
// that is mostly H and sometimes X, and write data with occasional X/Z
// bits.
func memoryInputs(kind circuit.Kind, step, lanes int, rng *rand.Rand) [][]logic.Value {
	perm := rng.Perm(256)
	in := make([][]logic.Value, lanes)
	for l := range in {
		addr := logic.V(8, uint64(perm[l%256]))
		states := make([]logic.State, 8)
		for b := range states {
			states[b] = addr.Bit(b)
		}
		if rng.Intn(8) == 0 {
			states[rng.Intn(8)] = []logic.State{logic.X, logic.Z}[rng.Intn(2)]
		}
		a := logic.FromStates(states)
		if kind == circuit.KindRom {
			in[l] = []logic.Value{a}
			continue
		}
		we := logic.V(1, 1)
		switch rng.Intn(6) {
		case 0:
			we = logic.V(1, 0)
		case 1:
			we = logic.AllX(1)
		}
		data := make([]logic.State, 4)
		for b := range data {
			data[b] = allStates[rng.Intn(2)] // L or H
			if rng.Intn(8) == 0 {
				data[b] = allStates[2+rng.Intn(2)] // X or Z
			}
		}
		in[l] = []logic.Value{logic.V(1, uint64(step/2)&1), we, a, logic.FromStates(data)}
	}
	return in
}

func proveMemory(t *testing.T, kind circuit.Kind, sh kernelShape, lanes int, rng *rand.Rand) {
	c, el := buildShape(t, kind, sh)
	prog := compileProgram(c, 1, lanes, 1)
	words := logic.PlaneWords(lanes)
	cur, next := newPlaneBuf(prog.total, words), newPlaneBuf(prog.total, words)

	state := make([][]logic.Value, lanes)
	for l := range state {
		state[l] = make([]logic.Value, el.NumStateVals())
		el.InitState(state[l])
	}
	out := make([]logic.Value, 1)
	o, w := int(prog.off[el.Out[0]]), sh.outs[0]
	for step := 0; step < 48; step++ {
		in := memoryInputs(kind, step, lanes, rng)
		for l := range in {
			for i, n := range el.In {
				p := int(prog.off[n])
				logic.PackLaneWide(cur.planes[p:p+sh.ins[i]], l, in[l][i])
			}
		}
		for sl := range prog.work[0] {
			prog.work[0][sl].eval(&cur, &next)
		}
		for l := range in {
			el.Eval(in[l], state[l], out)
			if got := logic.ExtractLaneWide(next.planes[o:o+w], l, w); got != out[0] {
				t.Fatalf("step %d lane %d in=%v: out %v, want %v", step, l, in[l], got, out[0])
			}
		}
	}
}

package vector

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"reflect"
	"slices"
	"sync/atomic"

	"parsim/internal/circuit"
	"parsim/internal/idle"
	"parsim/internal/logic"
)

// A machine is a lowered program together with everything a run of it
// writes: the two buffer sides, the producer mark bitmaps and the kernel
// state the program's kernels own. Lowering is the largest cost of a run
// outside its step loop, so machines outlive runs: the process-wide
// idle.Runs cache keeps idle ones under a digest of everything lowering
// reads, a run checks one out exclusively (or lowers one on a miss), and
// hands it back once the report holds copies of the final planes. The
// paper's compiled mode is "compile once, then step"; the cache makes that
// once per circuit, not once per run.
//
// Checking a machine out restores its t=0 state: every kernel state row
// and per-lane state copied back from the values lowering left (init), and
// every generator fresh. runProgram refills both buffer sides with X and
// clears the marks. The package comment proves that nothing else a run
// writes survives into the next.
type machine struct {
	prog  *program
	kerns []*kernel // prog.kernels(), the walk the state is restored in
	buf   [2]planeBuf
	// marks[par][q] is producer q's bitmap for step parity par (sim.marks),
	// each a cache line apart inside markBack.
	marks    [2][][]uint64
	markBack []uint64
	// init is every kernel state row as lowering left it, in the kernels
	// walk, V words then U words per row; initLanes is each kernel's
	// per-lane scalar state (nil where it has none).
	init      []uint64
	initLanes [][][]logic.Value
	// bytes is what the machine pins while idle (idle.Size): the program
	// and everything above, not the circuit its kernels point into.
	bytes int
}

// lowerings counts the programs lowered for runs (cache misses). Test hook:
// one lowering per key is pinned against it.
var lowerings atomic.Int64

// lower compiles c for p workers at the given lane count and stride into a
// fresh machine.
func lower(c *circuit.Circuit, p, lanes int, stride int64) *machine {
	lowerings.Add(1)
	m := newMachine(compileProgram(c, p, lanes, stride), p, logic.PlaneWords(lanes))
	m.bytes = idle.Size(m, reflect.TypeFor[circuit.Circuit](), reflect.TypeFor[circuit.Element]())
	return m
}

// newMachine allocates prog's run state and saves its kernel state as
// lowering left it.
func newMachine(prog *program, p, words int) *machine {
	m := &machine{prog: prog, kerns: prog.kernels()}
	for side := range m.buf {
		m.buf[side] = newPlaneBuf(prog.total, words)
	}
	// Producer bitmaps sit a cache line apart: each is written by its own
	// worker every step.
	stride := (prog.markWords+7)&^7 + 8
	m.markBack = make([]uint64, 2*p*stride)
	for par := range m.marks {
		m.marks[par] = make([][]uint64, p)
		for q := range m.marks[par] {
			lo := (par*p + q) * stride
			m.marks[par][q] = m.markBack[lo : lo+prog.markWords : lo+prog.markWords]
		}
	}
	m.initLanes = make([][][]logic.Value, len(m.kerns))
	for i, k := range m.kerns {
		for _, st := range k.state {
			m.init = append(m.init, st.V...)
			m.init = append(m.init, st.U...)
		}
		for _, lane := range k.laneState {
			m.initLanes[i] = append(m.initLanes[i], slices.Clone(lane))
		}
	}
	return m
}

// reset restores the machine's kernels and generators to t=0.
func (m *machine) reset() {
	at := 0
	for i, k := range m.kerns {
		for _, st := range k.state {
			at += copy(st.V, m.init[at:])
			at += copy(st.U, m.init[at:])
		}
		for l, lane := range k.laneState {
			copy(lane, m.initLanes[i][l])
		}
	}
	for w := range m.prog.gens {
		for i := range m.prog.gens[w] {
			g := &m.prog.gens[w][i]
			g.due, g.stale = 0, false
		}
	}
}

// machineKey digests everything lowering reads from c — its wiring
// (StructureDigest), every element's delay, cost and parameters, every
// node's width — with the worker count, lane count and lane stride it is
// lowered for. Two circuits with one key lower to the same program, so a
// machine lowered from one runs the other exactly. Names, IDs and the
// fan-out lists and drivers Build derives from the wiring are not read.
func machineKey(c *circuit.Circuit, p, lanes int, stride int64) idle.Key {
	structure := c.StructureDigest()
	h := sha256.New()
	w := bufio.NewWriter(h)
	w.Write(structure[:])
	var word [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		w.Write(word[:])
	}
	putValue := func(v logic.Value) {
		w.Write(v.Append(w.AvailableBuffer()))
		w.WriteByte(';')
	}
	put(int64(p))
	put(int64(lanes))
	put(stride)
	for i := range c.Elems {
		el := &c.Elems[i]
		put(int64(el.Delay))
		put(el.Cost)
		pr := &el.Params
		putValue(pr.Init)
		put(int64(pr.Period))
		put(int64(pr.Phase))
		put(int64(pr.Duty))
		put(int64(len(pr.Times)))
		for _, t := range pr.Times {
			put(int64(t))
		}
		put(int64(len(pr.Values)))
		for _, v := range pr.Values {
			putValue(v)
		}
		put(int64(len(pr.Mem)))
		for _, m := range pr.Mem {
			put(int64(m))
		}
		put(int64(pr.Lo))
		put(int64(pr.Shift))
		put(pr.Seed)
	}
	for i := range c.Nodes {
		put(int64(c.Nodes[i].Width))
	}
	w.Flush()
	var k idle.Key
	h.Sum(k[:0])
	return k
}

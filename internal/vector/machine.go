package vector

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"parsim/internal/circuit"
	"parsim/internal/logic"
)

// A machine is a lowered program together with everything a run of it
// writes: the two buffer sides, the producer mark bitmaps and the kernel
// state the program's kernels own. Lowering is the largest cost of a run
// outside its step loop, so machines outlive runs: a process-wide cache
// keeps idle ones under a digest of everything lowering reads, a run checks
// one out exclusively (or lowers one on a miss), and hands it back once the
// report holds copies of the final planes. The paper's compiled mode is
// "compile once, then step"; the cache makes that once per circuit, not
// once per run.
//
// Checking a machine out restores its t=0 state: every kernel state row
// and per-lane state copied back from the values lowering left (init), and
// every generator fresh. runProgram refills both buffer sides with X and
// clears the marks. The package comment proves that nothing else a run
// writes survives into the next.
type machine struct {
	key   [sha256.Size]byte
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
	// bytes is what the machine pins in slabs: both buffer sides, the mark
	// bitmaps and the kernel state with its saved copy.
	bytes int
}

// lowerings counts the programs lowered for runs (cache misses). Test hook:
// one lowering per key is pinned against it.
var lowerings atomic.Int64

// lower compiles c for p workers at the given lane count and stride into a
// fresh machine.
func lower(key [sha256.Size]byte, c *circuit.Circuit, p, lanes int, stride int64) *machine {
	lowerings.Add(1)
	m := newMachine(compileProgram(c, p, lanes, stride), p, logic.PlaneWords(lanes))
	m.key = key
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
	m.bytes = 8*(4*len(m.buf[0].v)+len(m.markBack)+2*len(m.init)) +
		2*len(m.buf[0].planes)*int(unsafe.Sizeof(logic.WidePlane{}))
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

// machineBudget bounds the bytes the idle machines pin. A machine larger
// than the whole budget is never kept, so a very large circuit costs its
// lowering on every run rather than memory between runs.
const machineBudget = 64 << 20

// machineCache holds the idle machines, oldest first, at most one per
// key. Machines are held strongly: the benchmark harness and a busy daemon
// collect garbage between runs, which would empty a sync.Pool every time.
type machineCache struct {
	mu    sync.Mutex
	idle  []*machine
	bytes int
}

var machines machineCache

// checkout hands out the idle machine under key, reset to t=0, or nil.
func (mc *machineCache) checkout(key [sha256.Size]byte) *machine {
	mc.mu.Lock()
	i := slices.IndexFunc(mc.idle, func(m *machine) bool { return m.key == key })
	if i < 0 {
		mc.mu.Unlock()
		return nil
	}
	m := mc.idle[i]
	mc.idle = slices.Delete(mc.idle, i, i+1)
	mc.bytes -= m.bytes
	mc.mu.Unlock()
	m.reset()
	return m
}

// checkin takes a machine back once its run is over, unless it alone
// exceeds the budget or an idle machine already holds its key, and then
// evicts the oldest machines until the idle ones fit the budget.
func (mc *machineCache) checkin(m *machine) {
	if m.bytes > machineBudget {
		return
	}
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if slices.ContainsFunc(mc.idle, func(o *machine) bool { return o.key == m.key }) {
		return
	}
	mc.idle = append(mc.idle, m)
	mc.bytes += m.bytes
	for mc.bytes > machineBudget {
		mc.bytes -= mc.idle[0].bytes
		mc.idle[0] = nil
		mc.idle = mc.idle[1:]
	}
}

// machineKey digests everything lowering reads from c — its wiring
// (StructureDigest), every element's delay, cost and parameters, every
// node's width — with the worker count, lane count and lane stride it is
// lowered for. Two circuits with one key lower to the same program, so a
// machine lowered from one runs the other exactly. Names, IDs and the
// fan-out lists and drivers Build derives from the wiring are not read.
func machineKey(c *circuit.Circuit, p, lanes int, stride int64) [sha256.Size]byte {
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
	var k [sha256.Size]byte
	h.Sum(k[:0])
	return k
}

package analyze

import (
	"sync"
	"sync/atomic"

	"parsim/internal/circuit"
)

// LevelSchedule computes each element's combinational depth — the same
// Kahn levelization Analyze reports in Report.Levels — without running the
// diagnostic passes. Elements inside (or fed only through) sequential
// feedback that cannot be levelized get -1. The plane core's compiler
// (internal/vector) orders its schedule by it, so evaluation sweeps the
// node slabs in dependency depth order, and derives its node numbering
// from it.
//
// Levelization is memoized by a structural digest of the circuit, so the
// profiler and the plane core levelizing the same circuit (or structurally
// identical clones of it) pay for one Kahn pass. The returned slice is a
// fresh copy the caller may mutate.
func LevelSchedule(c *circuit.Circuit) []int {
	e := levelsFor(c)
	out := make([]int, len(e.levels))
	copy(out, e.levels)
	return out
}

// levelizeRuns counts the levelization passes that actually ran (cache
// misses). Test hook: the one-levelization-per-circuit guarantee is pinned
// against it.
var levelizeRuns atomic.Int64

// schedEntry is an immutable cached levelization. The levels slice is
// shared between the cache and in-package readers; exported paths hand out
// copies.
type schedEntry struct {
	levels   []int
	maxLevel int
}

// memo caches values derived from a circuit under a digest of exactly what
// they depend on. Bounded FIFO: long-running processes (parsimd replaying
// a journal of distinct circuits) cannot grow it without limit, and
// eviction order does not matter for correctness — a miss just recomputes.
// The mutex also single-flights concurrent misses on the same circuit.
type memo[V any] struct {
	sync.Mutex
	cap   int
	byKey map[[32]byte]V
	fifo  [][32]byte
}

func newMemo[V any](capacity int) *memo[V] {
	return &memo[V]{cap: capacity, byKey: make(map[[32]byte]V)}
}

// get returns the value cached under key, computing and storing it on a
// miss.
func (m *memo[V]) get(key [32]byte, compute func() V) V {
	m.Lock()
	defer m.Unlock()
	if v, ok := m.byKey[key]; ok {
		return v
	}
	v := compute()
	if len(m.fifo) >= m.cap {
		delete(m.byKey, m.fifo[0])
		m.fifo = m.fifo[1:]
	}
	m.byKey[key] = v
	m.fifo = append(m.fifo, key)
	return v
}

const schedCacheCap = 128

// schedCache memoizes levelizations by the circuit's structure digest:
// element kinds (combPort consults trigger ports by kind), their input and
// output node lists (buildGraph's edges), and the node count. Names,
// delays, costs and generator parameters do not influence levels, so
// renamed or re-parameterized clones still hit.
var schedCache = newMemo[*schedEntry](schedCacheCap)

// levelsFor returns the memoized levelization for c, running the Kahn pass
// on a cache miss.
func levelsFor(c *circuit.Circuit) *schedEntry {
	return schedCache.get(c.StructureDigest(), func() *schedEntry {
		levelizeRuns.Add(1)
		levels, maxLevel := levelize(buildGraph(c))
		return &schedEntry{levels: levels, maxLevel: maxLevel}
	})
}

package seq

import (
	"parsim/internal/circuit"
	"parsim/internal/engine"
)

// Collect simulates the circuit over [0, horizon) and returns what the
// machine package's virtual-multiprocessor models consume: one StepRecord
// per active time step and the evaluation-causality DAG.
func Collect(c *circuit.Circuit, horizon circuit.Time) ([]StepRecord, *TaskGraph) {
	s := newSim(c, engine.Config{Horizon: horizon})
	s.co = newCollector(c)
	// With no checkpoint session and no supervisor to cancel it, run cannot
	// fail.
	_ = s.run()
	return s.co.steps, &s.co.graph
}

// StepRecord summarises one active time step for the virtual-machine model:
// how many node updates were applied and which elements were evaluated.
type StepRecord struct {
	T       circuit.Time
	Updates int32
	Evals   []circuit.ElemID
}

// TaskGraph is the causality DAG of element evaluations extracted from a
// sequential run: task i evaluated element Elems[i] at simulated time
// Times[i], and could not have started before every task in Deps[i]
// finished (its activating input events). Generator-driven activations have
// no dependencies — the asynchronous algorithm precomputes generators for
// all time, so those tasks are ready immediately.
//
// The graph drives the machine package's models: the synchronous simulators
// are constrained by the per-step structure (StepRecord), the asynchronous
// algorithm only by this DAG.
type TaskGraph struct {
	Elems []circuit.ElemID
	Times []circuit.Time
	Deps  [][]int32
}

// NumTasks returns the task count.
func (g *TaskGraph) NumTasks() int { return len(g.Elems) }

// collector accumulates StepRecords and the TaskGraph during a run.
type collector struct {
	steps []StepRecord
	cur   *StepRecord

	graph       TaskGraph
	prod        map[prodKey]int32 // pending update -> producing task
	pendingDeps [][]int32         // element -> producer tasks of activating updates
}

type prodKey struct {
	n circuit.NodeID
	t circuit.Time
}

func newCollector(c *circuit.Circuit) *collector {
	return &collector{
		prod:        make(map[prodKey]int32),
		pendingDeps: make([][]int32, len(c.Elems)),
	}
}

func (co *collector) beginStep(t circuit.Time) {
	co.steps = append(co.steps, StepRecord{T: t})
	co.cur = &co.steps[len(co.steps)-1]
}

// onUpdate records that a node update was applied at time t and returns the
// producing task (-1 for generator updates).
func (co *collector) onUpdate(n circuit.NodeID, t circuit.Time) int32 {
	co.cur.Updates++
	key := prodKey{n: n, t: t}
	if p, ok := co.prod[key]; ok {
		delete(co.prod, key)
		return p
	}
	return -1
}

// onActivate links an element's next evaluation to the producer task.
func (co *collector) onActivate(e circuit.ElemID, producer int32) {
	if producer >= 0 {
		co.pendingDeps[e] = append(co.pendingDeps[e], producer)
	}
}

// onEval opens a new task for the element and returns its id.
func (co *collector) onEval(e circuit.ElemID, t circuit.Time) int32 {
	id := int32(len(co.graph.Elems))
	co.graph.Elems = append(co.graph.Elems, e)
	co.graph.Times = append(co.graph.Times, t)
	co.graph.Deps = append(co.graph.Deps, co.pendingDeps[e])
	co.pendingDeps[e] = nil
	co.cur.Evals = append(co.cur.Evals, e)
	return id
}

// onSchedule records the producing task of a scheduled future update.
func (co *collector) onSchedule(n circuit.NodeID, t circuit.Time, task int32) {
	co.prod[prodKey{n: n, t: t}] = task
}

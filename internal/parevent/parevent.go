// Package parevent implements the paper's first algorithm: the synchronous
// parallel event-driven simulator.
//
// Every active time step updates the scheduled nodes and then evaluates the
// activated elements, all workers in step. The paper's fix for central-queue
// contention is to split the work "when adding to the list rather than when
// removing from the list"; here the netlist fixes the split. Every element
// has one owner (partition.CostBlocks, the asynchronous engine's blocks), so
// its state, its projected outputs and its output nodes live in one cache:
//
//   - an evaluation schedules its changed outputs straight into the owner's
//     private wheel, and only the owner ever updates those nodes;
//   - a node update appends each fan-out element to the updating worker's
//     list for that element's owner, touching no shared word;
//   - the owner merges the lists addressed to it into one run list,
//     de-duplicated by a plain per-element stamp, and publishes it; owner
//     and thieves then claim it claimBatch elements per atomic add. Stealing
//     once the own list is done is the load balancing the paper credits with
//     15-20% better utilisation.
//
// A step crosses the barrier twice:
//
//	[evaluate, publish peek] | [agree on t, fold, update nodes, route] | merge
//
// A thief cannot touch its victim's wheel, so it leaves a stolen evaluation's
// updates in a list the owner folds into its wheel after the next crossing.
// Until then the owner's peek does not know them, so the thief's peek carries
// their earliest time. Every pending update is thus covered by the peek of
// the worker that scheduled it, the minimum over all peeks is the next event
// time, and no update folded after the agreement is earlier than the agreed
// t. Merging needs no crossing of its own: a thief that reaches a victim
// still merging waits for that one publication.
//
// Mode selects the paper's ablations: the original central-queue design
// (which peaked at a speed-up of ~2), kept contended on purpose, and owner
// routing without stealing.
package parevent

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parsim/internal/barrier"
	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/eventq"
	"parsim/internal/guard"
	"parsim/internal/logic"
	"parsim/internal/partition"
	"parsim/internal/stats"
)

// Mode selects the work-distribution scheme.
type Mode int

const (
	// Distributed routes every element's work to its one owner and steals
	// at the end of the evaluation phase: the paper's final design.
	Distributed Mode = iota
	// NoSteal disables the end-of-phase stealing only.
	NoSteal
	// Central funnels node updates and activations through single shared
	// queues guarded by a lock: the paper's initial design, kept as an
	// ablation.
	Central
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Distributed:
		return "distributed"
	case NoSteal:
		return "no-steal"
	case Central:
		return "central"
	}
	return "unknown"
}

// modeOf is the scheme cfg's ablation flags select.
func modeOf(cfg engine.Config) Mode {
	switch {
	case cfg.CentralQueue:
		return Central
	case cfg.NoSteal:
		return NoSteal
	}
	return Distributed
}

// claimBatch is how many run-list elements one atomic add claims.
const claimBatch = 16

// lane is what one worker shows its peers, on cache lines of its own.
type lane struct {
	// peek is the earliest time the worker knows of (see publishPeek), or
	// -1; written before a step's first crossing and read after it.
	peek circuit.Time
	// run lists the activated elements the worker owns. The owner rebuilds
	// it after the second crossing, resets cursor, then stores the step's
	// number in pub; a thief reads run only once pub shows its own count.
	run    []circuit.ElemID
	pub    atomic.Int64
	cursor atomic.Int64
	_      [80]byte
}

// central is the shared state of Central mode: one wheel, one update
// bucket and one activation list, all behind one lock.
type central struct {
	mu      sync.Mutex
	claimed []atomic.Bool
	ups     []eventq.Update
	upCur   int
	act     []circuit.ElemID
	cur     int
}

// next hands out the next index below n through the shared cursor, one
// lock round-trip per entry, or -1 when the list is used up.
func (c *central) next(cur *int, n int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if *cur >= n {
		return -1
	}
	*cur++
	return *cur - 1
}

type sim struct {
	c              *circuit.Circuit
	cfg            engine.Config
	mode           Mode
	p              int
	val, projected []logic.Value
	state          [][]logic.Value

	owner   []int32 // element -> owning worker
	stamp   []int64 // element -> number of the last step that listed it; the owner's alone
	workers []*worker
	lanes   []lane
	central *central // nil outside Central mode

	bar     *barrier.Barrier
	avail   stats.Histogram
	chaos   *guard.ChaosProbe // captured once; nil on production runs
	stopped atomic.Bool       // cancellation agreed; all workers exit after the first crossing
}

// eng registers the synchronous parallel event-driven simulator with the
// engine layer.
type eng struct{}

func (eng) Name() string { return "event-driven" }

// Run simulates the circuit with cfg.Workers parallel workers. The guard
// contains worker panics, worker 0 publishes the current step as progress,
// and a trip aborts the phase barrier so no survivor spins for a dead peer.
// When the run is cancelled all workers stop together at the next time
// step (worker 0 observes the cancellation before a step's first crossing
// and everyone acts on it after, so no worker is left waiting) and the
// partial Report is returned.
func (e eng) Run(_ context.Context, c *circuit.Circuit, cfg engine.Config) (*engine.Report, error) {
	s := newSim(c, cfg, partition.CostBlocks(c, cfg.Workers))
	cfg.Guard().OnTrip(s.bar.Abort)
	wall := engine.Gang(cfg, "event-driven phase loop", func(w int) { s.workers[w].run() })

	rep := &engine.Report{Final: s.val, Stats: stats.Run{
		Algorithm: e.Name() + "(" + s.mode.String() + ")",
		Circuit:   c.Name,
		Horizon:   cfg.Horizon,
		Workers:   s.p,
		TimeSteps: s.workers[0].steps,
		Avail:     s.avail,
	}}
	wc := make([]stats.WorkerCounters, s.p)
	for i, w := range s.workers {
		w.wc.ModelCalls = w.wc.Evals
		wc[i] = w.wc
	}
	rep.Stats.Aggregate(wall, wc)
	return rep, nil
}

func init() { engine.Register(eng{}, "event", "parallel-event-driven") }

// newSim builds the run state; owner gives every element's owning worker.
func newSim(c *circuit.Circuit, cfg engine.Config, owner []int32) *sim {
	p := cfg.Workers
	s := &sim{
		c:         c,
		cfg:       cfg,
		mode:      modeOf(cfg),
		p:         p,
		val:       make([]logic.Value, len(c.Nodes)),
		projected: make([]logic.Value, len(c.Nodes)),
		state:     make([][]logic.Value, len(c.Elems)),
		owner:     owner,
		workers:   make([]*worker, p),
		lanes:     make([]lane, p),
		bar:       barrier.New(p),
		chaos:     cfg.Guard().Chaos(),
	}
	for i := range c.Nodes {
		s.val[i] = logic.AllX(c.Nodes[i].Width)
		s.projected[i] = s.val[i]
	}
	for i := range c.Elems {
		if n := c.Elems[i].NumStateVals(); n > 0 {
			s.state[i] = make([]logic.Value, n)
			c.Elems[i].InitState(s.state[i])
		}
	}
	for id := range s.workers {
		s.workers[id] = &worker{s: s, id: id, carried: -1}
		s.lanes[id].peek = -1
	}
	gens := c.Generators()
	if s.mode == Central {
		s.central = &central{claimed: make([]atomic.Bool, len(c.Elems))}
		q := eventq.New()
		for _, w := range s.workers {
			w.wheel = q
		}
		s.workers[0].genIDs, s.workers[0].genNext = gens, make([]circuit.Time, len(gens))
		return s
	}
	s.stamp = make([]int64, len(c.Elems))
	for _, w := range s.workers {
		w.wheel = eventq.New()
		w.acts = make([][]circuit.ElemID, p)
		w.sent = make([][]eventq.Entry, p)
	}
	for i, g := range gens {
		w := s.workers[i%p]
		w.genIDs, w.genNext = append(w.genIDs, g), append(w.genNext, 0)
	}
	return s
}

// worker is the per-goroutine state. Peers read acts and sent, each in the
// phase after the one that wrote it.
type worker struct {
	s     *sim
	id    int
	sense barrier.Sense

	genIDs  []circuit.ElemID
	genNext []circuit.Time
	// wheel holds the pending updates of the nodes this worker's elements
	// drive; in Central mode it is the one wheel all workers share.
	wheel   *eventq.Queue
	acts    [][]circuit.ElemID // [owner]: elements this step's node updates activated
	sent    [][]eventq.Entry   // [victim]: updates of stolen evaluations, until folded
	carried circuit.Time       // earliest time put in sent since the last peek, or -1

	inBuf, outBuf []logic.Value
	wc            stats.WorkerCounters // read by RunContext once the worker has exited
	steps         int64                // time steps begun; every worker counts the same
}

// wait passes the barrier, accounting blocked time as idle; one worker
// cannot block, so it does not read the clock. It returns false when the
// supervisor aborted the barrier (a peer died or the watchdog tripped); the
// caller must exit its loop.
func (w *worker) wait() bool {
	w.wc.BarrierWaits++
	if w.s.p == 1 {
		return w.s.bar.Wait(&w.sense)
	}
	t0 := time.Now()
	ok := w.s.bar.Wait(&w.sense)
	w.wc.Idle += time.Since(t0)
	return ok
}

func (w *worker) run() {
	s := w.s
	t := circuit.Time(-1)
	for {
		// Evaluate the step agreed last time round and publish the earliest
		// time this worker knows of. Worker 0 also notes cancellation here;
		// everyone reads the flag past the barrier, so all exit together.
		if t >= 0 && !w.evalPhase(t) {
			return
		}
		if w.id == 0 && s.cfg.Guard().Cancelled() {
			s.stopped.Store(true)
		}
		w.publishPeek()
		if !w.wait() {
			return
		}
		if t >= 0 && w.id == 0 && s.cfg.CollectAvail {
			s.avail.Observe(s.activated())
		}
		if s.stopped.Load() {
			return
		}
		t = -1
		for i := range s.lanes {
			if pt := s.lanes[i].peek; pt >= 0 && (t < 0 || pt < t) {
				t = pt
			}
		}
		if t < 0 || t >= s.cfg.Horizon {
			return
		}
		w.steps++
		if w.id == 0 {
			s.cfg.Guard().Progress(int64(t))
		}
		if !w.updatePhase(t) || !w.wait() {
			return
		}
		w.merge()
	}
}

// activated counts the elements the last step activated.
func (s *sim) activated() int {
	if s.central != nil {
		return len(s.central.act)
	}
	n := 0
	for i := range s.lanes {
		n += len(s.lanes[i].run)
	}
	return n
}

// publishPeek stores the earliest time pending in this worker's wheel, its
// generator agenda and the updates it left for victims. In Central mode
// worker 0 speaks for the shared wheel and the other lanes stay at -1.
func (w *worker) publishPeek() {
	if w.s.central != nil && w.id != 0 {
		return
	}
	next := w.carried // the owners fold those updates after the crossing
	w.carried = -1
	if t, ok := w.wheel.Peek(); ok && (next < 0 || t < next) {
		next = t
	}
	for _, gt := range w.genNext {
		if gt >= 0 && (next < 0 || gt < next) {
			next = gt
		}
	}
	w.s.lanes[w.id].peek = next
}

// dueGenerators emits the changes this worker's generators make at t and
// advances their agenda.
func (w *worker) dueGenerators(t circuit.Time, emit func(circuit.Time, eventq.Update)) {
	for i, gt := range w.genNext {
		if gt != t {
			continue
		}
		el := &w.s.c.Elems[w.genIDs[i]]
		emit(t, eventq.Update{Node: el.Out[0], Value: el.GenValueAt(t)})
		if next, ok := el.GenNextChange(t); ok && next < w.s.cfg.Horizon {
			w.genNext[i] = next
		} else {
			w.genNext[i] = -1
		}
	}
}

// updatePhase applies the node updates of time t that this worker holds and
// routes the activations to their owners; false means the run was aborted.
func (w *worker) updatePhase(t circuit.Time) bool {
	s := w.s
	if s.central != nil {
		return w.centralUpdatePhase(t)
	}
	// Fresh activation lists for this step. Safe: their readers merged them
	// before they reached the crossing this worker has just left.
	for o := range w.acts {
		w.acts[o] = w.acts[o][:0]
	}
	// Updates thieves scheduled on this worker's behalf; their peeks carried
	// the times, so none is earlier than t.
	for _, thief := range s.workers {
		if q := thief.sent[w.id]; len(q) > 0 {
			for _, e := range q {
				w.wheel.Schedule(e.T, eventq.Update{Node: e.Node, Value: e.Value})
			}
			thief.sent[w.id] = q[:0]
		}
	}
	w.dueGenerators(t, w.applyUpdate)
	if pt, ok := w.wheel.Peek(); ok && pt == t {
		_, ups, _ := w.wheel.PopNext()
		for _, u := range ups {
			w.applyUpdate(t, u)
		}
	}
	return true
}

// applyUpdate performs one node update and hands each activated fan-out
// element to its owner — or, in Central mode, claims it for the shared list.
func (w *worker) applyUpdate(t circuit.Time, u eventq.Update) {
	s := w.s
	if u.Value.Equal(s.val[u.Node]) {
		return
	}
	s.val[u.Node] = u.Value
	w.wc.NodeUpdates++
	if s.cfg.Probe != nil {
		s.cfg.Probe.OnChange(u.Node, t, u.Value)
	}
	c := s.central
	for _, pr := range s.c.Nodes[u.Node].Fanout {
		if c == nil {
			o := s.owner[pr.Elem]
			w.acts[o] = append(w.acts[o], pr.Elem)
		} else if c.claimed[pr.Elem].CompareAndSwap(false, true) {
			c.mu.Lock()
			c.act = append(c.act, pr.Elem)
			c.mu.Unlock()
		}
	}
}

// merge builds this worker's run list for the step from the activation
// lists addressed to it and publishes it.
func (w *worker) merge() {
	s := w.s
	if s.central != nil {
		return
	}
	ln := &s.lanes[w.id]
	run := ln.run[:0]
	for _, src := range s.workers {
		for _, e := range src.acts[w.id] {
			if s.stamp[e] != w.steps {
				s.stamp[e] = w.steps
				run = append(run, e)
			}
		}
	}
	ln.run = run
	ln.cursor.Store(0)
	ln.pub.Store(w.steps)
}

// evalPhase evaluates this worker's run list, then steals from the others';
// false means the run was aborted.
func (w *worker) evalPhase(t circuit.Time) bool {
	s := w.s
	if s.central != nil {
		return w.centralEvalPhase(t)
	}
	w.drain(t, w.id)
	for off := 1; off < s.p && s.mode != NoSteal; off++ {
		victim := (w.id + off) % s.p
		for i := 1; s.lanes[victim].pub.Load() != w.steps; i++ { // still merging
			if s.bar.Aborted() {
				return false
			}
			if i%64 == 0 {
				runtime.Gosched()
			}
		}
		w.wc.Steals += w.drain(t, victim)
	}
	return true
}

// drain claims batches of the owner's run list until none is left,
// returning how many elements this worker evaluated.
func (w *worker) drain(t circuit.Time, owner int) int64 {
	ln := &w.s.lanes[owner]
	run, end, n := ln.run, int64(len(ln.run)), int64(0)
	for ln.cursor.Load() < end {
		lo := ln.cursor.Add(claimBatch) - claimBatch
		for _, id := range run[min(lo, end):min(lo+claimBatch, end)] {
			w.evaluate(t, id, owner)
			n++
		}
	}
	return n
}

// evaluate runs one element of owner's and schedules its changed outputs: in
// the own wheel, in the list the victim folds, or in Central's shared wheel.
func (w *worker) evaluate(t circuit.Time, id circuit.ElemID, owner int) {
	s := w.s
	el := &s.c.Elems[id]
	w.wc.Evals++
	if s.chaos != nil {
		s.chaos.Eval()
	}
	if cap(w.inBuf) < len(el.In) {
		w.inBuf = make([]logic.Value, len(el.In))
	}
	in := w.inBuf[:len(el.In)]
	for i, n := range el.In {
		in[i] = s.val[n]
	}
	if cap(w.outBuf) < len(el.Out) {
		w.outBuf = make([]logic.Value, len(el.Out))
	}
	out := w.outBuf[:len(el.Out)]
	el.Eval(in, s.state[id], out)
	if s.cfg.CostSpin > 0 {
		circuit.Spin(el.Cost * s.cfg.CostSpin)
	}
	for p, n := range el.Out {
		if out[p].Equal(s.projected[n]) {
			continue
		}
		s.projected[n] = out[p]
		at, up := t+el.Delay, eventq.Update{Node: n, Value: out[p]}
		switch c := s.central; {
		case c != nil:
			c.mu.Lock()
			w.wheel.Schedule(at, up)
			c.mu.Unlock()
		case owner == w.id:
			w.wheel.Schedule(at, up)
		default: // stolen: the owner folds it after the next crossing
			w.sent[owner] = append(w.sent[owner], eventq.Entry{T: at, Node: n, Value: out[p]})
			if w.carried < 0 || at < w.carried {
				w.carried = at
			}
		}
	}
}

// ---- Central-queue mode (the paper's initial, contended design) ----

// centralUpdatePhase stages and applies the step's update bucket.
func (w *worker) centralUpdatePhase(t circuit.Time) bool {
	c := w.s.central
	if w.id == 0 {
		// Generator changes and this step's update bucket are staged by
		// worker 0; all workers then contend for them one at a time.
		c.ups, c.act, c.upCur, c.cur = c.ups[:0], c.act[:0], 0, 0
		w.dueGenerators(t, func(_ circuit.Time, u eventq.Update) { c.ups = append(c.ups, u) })
		if pt, ok := w.wheel.Peek(); ok && pt == t {
			_, ups, _ := w.wheel.PopNext()
			c.ups = append(c.ups, ups...)
		}
	}
	if !w.wait() { // staging barrier: everyone sees the bucket
		return false
	}
	for i := c.next(&c.upCur, len(c.ups)); i >= 0; i = c.next(&c.upCur, len(c.ups)) {
		w.applyUpdate(t, c.ups[i])
	}
	return true
}

// centralEvalPhase contends for the shared activation list, then waits for
// every worker to finish so that worker 0 peeks a settled wheel.
func (w *worker) centralEvalPhase(t circuit.Time) bool {
	c := w.s.central
	for i := c.next(&c.cur, len(c.act)); i >= 0; i = c.next(&c.cur, len(c.act)) {
		c.claimed[c.act[i]].Store(false)
		w.evaluate(t, c.act[i], 0)
	}
	return w.wait()
}

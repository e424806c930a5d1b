// Package core implements the paper's primary contribution: the
// asynchronous ("semi-chaotic") parallel logic simulation algorithm.
//
// Unlike the synchronous simulators, there are no locks and no barriers:
// "the processors never have to wait for any of the other processors". The
// unit of work is an element, not a time step. Each node carries its entire
// event history (an append-only list of value changes) together with a
// monotonically increasing valid-time: the simulated time up to which the
// node's behaviour is fully known. Evaluating an element consumes every
// pending input event below the minimum input valid-time — often many
// events in one activation, which is where the algorithm's "very large
// problem size" comes from — appends the resulting output changes, advances
// the outputs' valid-times, and stimulates the fan-out.
//
// Because valid-times advance incrementally even when no events are
// produced, the Chandy-Misra deadlock ("no more elements have events on all
// their inputs") never forms, and because only known-valid events are ever
// consumed there are no Time-Warp rollbacks and no state-restoration
// storage.
//
// # History storage
//
// A history is a forward-linked list of chunks with headers of their own;
// slots are carved from the writing worker's pointer-free block of blockSz
// events, each chunk as long as the history before it, 4 to chunkSz slots.
// Only the writer's tail and the cursors point at headers, so a chunk every
// cursor has passed is unreachable, and a block, holding nothing but its own
// bytes, is freed once no live chunk points into it: the paper's
// asynchronous garbage collection of consumed events is the Go collector's.
// A node's first header starts empty, for the cursors to start from.
//
// Publishing. A writer stores count once per output per activation, before
// the validTo store that makes the new events consumable or, when the
// valid-time does not move, before activating the fan-out. An activation
// appends only at or past the output's old valid-time (every input event
// below the bound that produced it was consumed, and lookahead extends a
// bound only past times at which the output cannot change), and a consumer
// loads validTo before count and consumes only below the valid-time it
// loaded, so if it read the old valid-time it needs none of the new events,
// and if it read the new one its count covers them all. The count store also
// orders every slot, header and link write before it.
//
// # Scheduling
//
// An activation should find work to do, so the scheduler is built around
// three rules.
//
// Owner routing. Every non-generator element has one fixed owner: the
// elements, in id order, are cut into one contiguous, cost-balanced block
// per worker, a connected piece of the circuit (generators give rows,
// columns and functional units consecutive ids), so most fan-out stays on
// the worker that produced it; cutting the (level, id) order instead would
// make the workers a pipeline of level bands. Only the owner evaluates an
// element or touches its queued flag, as plain memory. Activating an owned
// element queues it unless it is queued already; activating a foreign one
// pushes its id on queues[owner][self], the paper's n-by-n single-reader,
// single-writer FIFO matrix and the only cross-worker channel, and the
// owner drops a popped id whose element is queued already.
//
// Rank-ordered ready set. A worker drains its inbound queues into a private
// ready set bucketed by combinational depth (analyze.LevelSchedule; elements
// in or behind a feedback cycle go last) and always runs the shallowest
// ready element. On a feed-forward cone every input has therefore reached
// the horizon before its consumer runs, and the consumer runs once and
// drains all its events. The queued flag is cleared when an element is
// popped, so one activated while it runs goes back into the ready set at
// its rank.
//
// Threshold wake-ups. After each activation the owner stores need: the
// smallest minimum-input-valid-time at which another activation could do
// anything. That is minValid+1, one past the minimum it just read — or,
// for a clocked element whose lookahead stopped at a pending trigger event
// at T > minValid, T+1, because until that event can be consumed the events
// on the other inputs cannot reach the outputs. A producer that advances
// node n from old to new stores validTo and then loads need, and activates
// a fan-out element only if old < need <= new. Inputs on trigger ports
// (their valid-time alone can extend the lookahead), events published
// without a valid-time advance (the Chandy-Misra discipline), and
// GateLookahead runs (where a controlling input acts like a trigger) take
// the unconditional path. A producer may test a need that the element's
// queued or running activation is about to replace, so after its need
// store the owner re-reads the inputs' valid-times and queues the element
// again if all have reached need: the settle re-check.
//
// Why a skipped wake-up is never lost. Let A be an element's last
// activation and suppose every input reaches A's need. A read some input
// below need; take the store old < need <= new that brings an input to need
// last in the single order of Go's sequentially consistent atomics. If it
// precedes the re-check's first load, the re-check sees every input at
// need and queues the element again. If not, it follows A's need store, so
// its producer then loads A's need, which passes old < need <= new (or a
// later need, from a later activation), or the port is a trigger port: the
// push either queues the element or, dropped as a duplicate, finds an
// activation still to run. Either way A was not the last. Events need no
// re-check: one published with a valid-time advance lies at or past the
// old valid-time, at least the minimum A read, so by the definition of need
// it gives the element nothing to do before every input has passed need;
// one published without an advance is pushed unconditionally. At
// quiescence every element therefore has min(validTo over inputs) < need,
// no event below that minimum and a clear queued flag, which the tests
// check after every round.
//
// Termination. A worker counts the ids it pushes (created) and, whenever
// its ready set runs dry, publishes the count of ids it popped (settled), a
// dropped duplicate included; its local activations, made while it holds a
// pop not yet published, need no count. A starving worker sums the words
// (see quiescent) instead of every activation bumping one shared counter.
package core

import (
	"context"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"parsim/internal/analyze"
	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/guard"
	"parsim/internal/logic"
	"parsim/internal/partition"
	"parsim/internal/spsc"
	"parsim/internal/stats"
)

// eng registers the asynchronous simulator with the engine layer. The same
// package backs two registry entries: the paper's semi-chaotic algorithm and
// the Chandy-Misra deadlock-recovery discipline it is contrasted with.
type eng struct {
	name string
	// deadlockRecovery switches to the Chandy-Misra discipline the paper
	// contrasts itself with: valid-times do NOT advance during execution,
	// so the simulation runs until "no more elements have events on all
	// their inputs" (deadlock), then a global clock-value update advances
	// every node's valid-time to the fixpoint and the simulation restarts.
	// Results are identical; Report.Rounds counts the deadlocks broken.
	deadlockRecovery bool
}

var (
	async       = eng{name: "asynchronous"}
	chandyMisra = eng{name: "chandy-misra", deadlockRecovery: true}
)

func init() {
	engine.Register(async, "async", "semi-chaotic")
	engine.Register(chandyMisra, "cm", "deadlock-recovery")
}

func (e eng) Name() string { return e.name }

// History storage sizes (see the package comment), and the activations
// between a worker's watchdog heartbeats; it also beats when it runs dry.
const (
	chunkSz   = 64
	blockSz   = 1024
	noEvent   = math.MaxInt64 // a cursor's next-event time when none is published
	beatEvery = 64
)

// event is one node value change.
type event struct {
	t circuit.Time
	v logic.Value
}

// hchunk is one chunk of a node's history, written before the count store
// that publishes its first event and read only below a count loaded after it.
type hchunk struct {
	base  int64 // history index of slots[0]
	slots []event
	next  *hchunk
}

// history is one node's behaviour over time. The writer side (n, tail, last,
// final) is only ever touched by the driving element's owner (or before the
// workers start); readers go through the atomics.
type history struct {
	count   atomic.Int64 // published events
	validTo atomic.Int64 // behaviour known for all t < validTo
	n       int64        // appended events, published or not; writer-only
	tail    *hchunk      // writer-only
	last    logic.Value  // last appended-or-dropped value (dedup), writer-only
	final   logic.Value  // last value applied before the horizon, writer-only
}

// cursor tracks one (element, input port) consumer position.
type cursor struct {
	pos   int64
	chunk *hchunk
	val   logic.Value // input value at the current position
}

// elemCtl is what activating an element touches: the wake-up threshold its
// owner published, where it runs and whether it is queued. owner, rank and
// trig are fixed before the workers start.
type elemCtl struct {
	need   atomic.Int64 // see the package comment; written by the owner only
	owner  int32        // the one worker that evaluates this element
	rank   int32        // ready-set bucket: combinational depth, cycles last
	trig   uint8        // bit p set: input port p wakes unconditionally
	queued bool         // in the owner's ready set; the owner's alone, plain memory
}

type sim struct {
	c   *circuit.Circuit
	cfg engine.Config
	eng eng

	hist    []history
	cursors [][]cursor // [elem][port]
	state   [][]logic.Value
	ctl     []elemCtl
	nrank   int // ready-set buckets: one per level, then the cycle-fed

	workers []*worker
	queues  [][]*spsc.Queue[circuit.ElemID] // [target][source]; no diagonal

	chaos *guard.ChaosProbe // captured once; nil on production runs
}

// Run simulates the circuit with cfg.Workers lock-free workers. The guard
// contains worker panics, activations heartbeat the watchdog, and a run that
// goes passive with node valid-times short of the horizon self-reports the
// stall. A cancelled run stops at every worker's next queue poll (or within
// 64 merged time points of an activation) and returns the partial Report.
func (e eng) Run(ctx context.Context, c *circuit.Circuit, cfg engine.Config) (*engine.Report, error) {
	s := newSim(c, cfg, e)

	start := time.Now()
	rounds := int64(0)
	for {
		rounds++
		s.runWorkers()
		if cfg.Guard.CutShort() || !e.deadlockRecovery || !s.recoverDeadlock() {
			break
		}
	}
	wall := time.Since(start)

	final := make([]logic.Value, len(c.Nodes))
	for i := range final {
		final[i] = s.hist[i].final
	}
	rep := &engine.Report{Final: final, Run: stats.Run{
		Algorithm: e.name,
		Circuit:   c.Name,
		Horizon:   cfg.Horizon,
		Workers:   cfg.Workers,
	}}
	if e.deadlockRecovery {
		rep.Rounds = rounds
	}
	wc := make([]stats.WorkerCounters, len(s.workers))
	for i, w := range s.workers {
		wc[i] = w.wc
	}
	rep.Run.Aggregate(wall, wc)
	return rep, engine.StallReport(ctx, e.name, c, cfg.Horizon, func(n circuit.NodeID) (int64, bool) {
		return s.hist[n].validTo.Load(), true
	})
}

// newSim builds the run state — histories, cursors and element state out of
// one slab each, and every node's empty first chunk header — materialises the
// generators and queues their fan-out.
func newSim(c *circuit.Circuit, cfg engine.Config, e eng) *sim {
	p := cfg.Workers
	s := &sim{
		c:       c,
		cfg:     cfg,
		eng:     e,
		hist:    make([]history, len(c.Nodes)),
		cursors: make([][]cursor, len(c.Elems)),
		state:   make([][]logic.Value, len(c.Elems)),
		ctl:     make([]elemCtl, len(c.Elems)),
		workers: make([]*worker, p),
		queues:  make([][]*spsc.Queue[circuit.ElemID], p),
		chaos:   cfg.Guard.Chaos(),
	}
	for i := range c.Nodes {
		x := logic.AllX(c.Nodes[i].Width)
		s.hist[i] = history{tail: new(hchunk), last: x, final: x}
	}
	var nIn, nState int
	for i := range c.Elems {
		nIn += len(c.Elems[i].In)
		nState += c.Elems[i].NumStateVals()
	}
	cursors := make([]cursor, nIn)
	state := make([]logic.Value, nState)
	for i := range c.Elems {
		el := &c.Elems[i]
		if n := el.NumStateVals(); n > 0 {
			s.state[i], state = state[:n:n], state[n:]
			el.InitState(s.state[i])
		}
		cs := cursors[:len(el.In):len(el.In)]
		cursors = cursors[len(el.In):]
		for port, n := range el.In {
			cs[port] = cursor{chunk: s.hist[n].tail, val: logic.AllX(c.Nodes[n].Width)}
		}
		s.cursors[i] = cs
	}
	s.place()
	for w := range s.workers {
		s.workers[w] = newWorker(s, w)
		s.queues[w] = make([]*spsc.Queue[circuit.ElemID], p)
		for src := range s.queues[w] {
			if src != w {
				q := spsc.New[circuit.ElemID]()
				s.queues[w][src] = q
				s.workers[w].inbound = append(s.workers[w].inbound, q)
			}
		}
	}

	// Initialisation per the paper: "evaluate all generator and constant
	// nodes for all time", then stimulate their fan-outs. This runs before
	// any worker starts, so the owners' ready sets can be filled directly.
	for _, g := range c.Generators() {
		el := &c.Elems[g]
		n := el.Out[0]
		h := &s.hist[n]
		el.GenWaveform(cfg.Horizon, cfg.Guard.Cancelled, func(t circuit.Time, v logic.Value) {
			s.workers[0].appendEvent(n, t, v)
		})
		h.count.Store(h.n)
		h.setValid(int64(cfg.Horizon))
		s.workers[0].release(h)
		for _, pr := range c.Nodes[n].Fanout {
			s.enqueue(pr.Elem)
		}
	}
	return s
}

// place fixes every element's owner (partition.CostBlocks, shared with the
// event-driven engine), ready-set rank, trigger mask and wake-up threshold.
func (s *sim) place() {
	c := s.c
	levels := analyze.LevelSchedule(c)
	owners := partition.CostBlocks(c, s.cfg.Workers)
	cycles := int32(0) // the bucket after the deepest level
	for i := range c.Elems {
		cycles = max(cycles, int32(levels[i])+1)
	}
	s.nrank = int(cycles) + 1
	for i := range c.Elems {
		el := &c.Elems[i]
		ctl := &s.ctl[i]
		ctl.rank = int32(levels[i])
		if ctl.rank < 0 {
			ctl.rank = cycles
		}
		// A never-evaluated element has seen no input behaviour at all, so
		// the first advance of any input (from valid-time 0) must wake it.
		ctl.need.Store(1)
		if el.IsGenerator() {
			continue
		}
		ctl.owner = owners[i]
		if !s.cfg.NoLookahead {
			for _, port := range circuit.TriggerPorts(el.Kind) {
				ctl.trig |= 1 << port
			}
		}
	}
}

// enqueue queues an element on its owner while no worker runs (before the
// first round and between deadlock-recovery rounds), counted as pushed and
// popped at once, so that no worker finds the round quiescent before it.
func (s *sim) enqueue(e circuit.ElemID) {
	w := s.workers[s.ctl[e].owner]
	if w.queue(e) {
		w.created.Add(1)
		w.popped++
	}
}

// quiescent reports whether no activation is pending anywhere. An id is
// created before it is pushed, and a worker, which gains work only by a pop,
// publishes its pops as settled only while it holds none: created - settled
// is the ids in flight plus the unpublished pops, zero only when nothing is
// pending. settled is summed first and both only grow, so equal sums mean
// nothing was pending at an instant between the scans, nor can be after.
func (s *sim) quiescent() bool {
	var created, settled int64
	for _, w := range s.workers {
		settled += w.settled.Load()
	}
	for _, w := range s.workers {
		created += w.created.Load()
	}
	return created == settled
}

// runWorkers runs one round: every worker until no activation is pending
// anywhere (or the run is cancelled).
func (s *sim) runWorkers() {
	engine.Gang(s.cfg, "asynchronous eval loop", func(w int) { s.workers[w].run() })
}

// readySet is a worker's private set of queued elements, bucketed by rank;
// pop always serves the lowest non-empty bucket, oldest entry first.
type readySet struct {
	buckets [][]circuit.ElemID
	heads   []int // per bucket: entries before it are already popped
	lowest  int   // no bucket below it has entries
	n       int
}

func (r *readySet) push(rank int32, e circuit.ElemID) {
	r.buckets[rank] = append(r.buckets[rank], e)
	r.lowest = min(r.lowest, int(rank))
	r.n++
}

func (r *readySet) pop() (circuit.ElemID, bool) {
	if r.n == 0 {
		return 0, false
	}
	for r.heads[r.lowest] == len(r.buckets[r.lowest]) {
		r.lowest++
	}
	b := r.lowest
	e := r.buckets[b][r.heads[b]]
	r.heads[b]++
	if r.heads[b] == len(r.buckets[b]) {
		r.buckets[b], r.heads[b] = r.buckets[b][:0], 0
	}
	r.n--
	return e, true
}

// worker is one processor. It lives for the whole run (deadlock-recovery
// rounds restart its loop, not the worker), so its counters and idle time
// sum over rounds. wc is worker-local until the run ends: two workers
// bumping rows of one shared slice would share cache lines on every event.
type worker struct {
	s        *sim
	id       int
	ready    readySet
	inbound  []*spsc.Queue[circuit.ElemID] // queues[id][src], src != id
	block    []event                       // the free rest of this worker's current event block
	carved   *hchunk                       // the chunk whose slots were carved from block last
	inBuf    []logic.Value
	outBuf   []logic.Value
	countBuf []int64
	vtBuf    []int64
	nextBuf  []int64
	appBuf   []bool
	wc       stats.WorkerCounters
	popped   int64        // ids popped from inbound queues and given by enqueue
	_        [64]byte     // the words below are read by starving workers
	created  atomic.Int64 // ids this worker pushed on queues, and those enqueue gave it
	settled  atomic.Int64 // popped, published while the ready set is empty
	_        [64]byte     // keep the next worker's allocation off this line
}

func newWorker(s *sim, id int) *worker {
	w := &worker{s: s, id: id}
	w.ready.buckets = make([][]circuit.ElemID, s.nrank)
	w.ready.heads = make([]int, s.nrank)
	w.ready.lowest = s.nrank
	return w
}

func (w *worker) run() {
	s := w.s
	starved := 0 // polls since this worker last had an element to run
	for {
		if s.cfg.Guard.Cancelled() {
			return // every worker polls the flag, so all exit independently
		}
		w.drain()
		if e, ok := w.ready.pop(); ok {
			w.process(e)
			starved = 0
			continue
		}
		// Out of local work while others still run: the only spin in the
		// algorithm, starvation, not synchronisation, and the only clock
		// read. The first poll beats for the activations since the last
		// beat. The spin watches the inbound queues; the termination scan
		// reads words the busy workers write, so it runs, after publishing
		// this worker's pops, on the first poll and every 16th after it.
		if starved == 0 {
			s.cfg.Guard.Heartbeat(w.id)
		}
		if starved%16 == 0 {
			w.settled.Store(w.popped)
			if s.quiescent() {
				return
			}
		}
		starved++
		t0 := time.Now()
		w.wc.IdlePolls++
		runtime.Gosched()
		w.wc.Idle += time.Since(t0)
	}
}

// drain moves the inbound ids into the ready set. A duplicate, an id whose
// element is queued already, is dropped, settled by the pop counted here.
func (w *worker) drain() {
	for _, q := range w.inbound {
		for e, ok := q.Pop(); ok; e, ok = q.Pop() {
			w.popped++
			w.queue(e)
		}
	}
}

// activate stimulates an element, the paper's "activate the elements only
// once": the owner queues it, and a foreign producer counts and pushes it.
func (w *worker) activate(e circuit.ElemID) {
	s := w.s
	if s.chaos != nil && s.chaos.DropWakeup() {
		// Injected lost wake-up: pushed but never delivered, so the run never
		// quiesces and hangs, the failure the watchdog exists to catch.
		w.created.Add(1)
		return
	}
	if owner := s.ctl[e].owner; int(owner) != w.id {
		w.created.Add(1)
		s.queues[owner][w.id].Push(e)
		return
	}
	w.queue(e)
}

// queue puts an element this worker owns into its ready set unless it is
// queued already, reporting whether it was not.
func (w *worker) queue(e circuit.ElemID) bool {
	w.checkOwner("queued", e)
	ctl := &w.s.ctl[e]
	if ctl.queued {
		return false
	}
	ctl.queued = true
	w.ready.push(ctl.rank, e)
	return true
}

// appendEvent appends, unpublished, one value change on node n at time t;
// the caller holds the node's writer side (driver running, or pre-start).
func (w *worker) appendEvent(n circuit.NodeID, t circuit.Time, v logic.Value) {
	s := w.s
	h := &s.hist[n]
	h.last = v
	if t >= s.cfg.Horizon {
		return // beyond the simulated window; dedup state still updated
	}
	h.final = v
	c := h.tail
	off := h.n - c.base
	if off == int64(len(c.slots)) {
		size := int(min(max(h.n, 4), chunkSz))
		if off > 0 {
			nc := &hchunk{base: h.n}
			c.next, h.tail, c, off = nc, nc, nc, 0
		}
		if len(w.block) < size {
			w.block = make([]event, blockSz)
		}
		c.slots, w.block, w.carved = w.block[:size], w.block[size:], c
	}
	c.slots[off] = event{t: t, v: v}
	h.n++
	w.wc.NodeUpdates++
	if s.cfg.Probe != nil {
		s.cfg.Probe.OnChange(n, t, v)
	}
}

// release hands the unused end of a complete history's tail chunk, if it
// was this worker's latest carve (its capacity runs to the block's end),
// back to the block: nothing is appended or read there any more.
func (w *worker) release(h *history) {
	if c := h.tail; c == w.carved {
		w.block, w.carved = c.slots[h.n-c.base:cap(c.slots)], nil
	}
}

// peek returns the next unconsumed event on one input cursor, bounded by
// the already-loaded published count.
func (cu *cursor) peek(count int64) (event, bool) {
	if cu.pos >= count {
		return event{}, false
	}
	for cu.pos >= cu.chunk.base+int64(len(cu.chunk.slots)) {
		cu.chunk = cu.chunk.next
	}
	return cu.chunk.slots[cu.pos-cu.chunk.base], true
}

// nextTime is the time of the cursor's next event below count, or noEvent.
func (cu *cursor) nextTime(count int64) int64 {
	if ev, ok := cu.peek(count); ok {
		return int64(ev.t)
	}
	return noEvent
}

// take consumes the event the last peek returned and returns the time of
// the one after it.
func (cu *cursor) take(count int64) int64 {
	checkBelow("slot read", cu.pos, count)
	cu.val = cu.chunk.slots[cu.pos-cu.chunk.base].v
	cu.pos++
	return cu.nextTime(count)
}

// changeBound is the earliest time an input can change: its next published
// event, or its valid-time when none is published.
func changeBound(next, vt int64) int64 {
	if next != noEvent {
		return next
	}
	return vt
}

// process evaluates an element popped from this worker's ready set, the
// paper's "get the output behaviour of an element" procedure: consume every
// input event below min-valid in merged time order, evaluating once per
// distinct time, then advance the outputs' valid times, publish the wake-up
// threshold and stimulate fan-outs that gained behaviour they can use. The
// queued flag is cleared first, so an activation that arrives meanwhile
// puts the element back into the ready set.
func (w *worker) process(e circuit.ElemID) {
	w.checkOwner("evaluated", e)
	s := w.s
	s.ctl[e].queued = false
	el := &s.c.Elems[e]
	w.wc.Evals++
	if w.wc.Evals%beatEvery == 0 {
		s.cfg.Guard.Heartbeat(w.id)
	}
	if s.chaos != nil {
		s.chaos.Eval()
	}
	cs := s.cursors[e]
	horizon := int64(s.cfg.Horizon)
	if np := len(cs); cap(w.countBuf) < np {
		w.countBuf, w.vtBuf, w.nextBuf = make([]int64, np), make([]int64, np), make([]int64, np)
		w.inBuf = make([]logic.Value, np)
	}
	if cap(w.outBuf) < len(el.Out) {
		w.outBuf, w.appBuf = make([]logic.Value, len(el.Out)), make([]bool, len(el.Out))
	}
	counts, vts, next, in := w.countBuf[:len(cs)], w.vtBuf[:len(cs)], w.nextBuf[:len(cs)], w.inBuf[:len(cs)]
	out, appended := w.outBuf[:len(el.Out)], w.appBuf[:len(el.Out)]
	clear(appended)

	// Step 1-2: min-valid across inputs, and the published counts loaded
	// once, for a consistent view. next holds each port's next event time,
	// so finding a merged time point touches only the chunks at that time.
	minValid := horizon
	for port, n := range el.In {
		h := &s.hist[n]
		vts[port] = min(h.validTo.Load(), horizon)
		minValid = min(minValid, vts[port])
		counts[port] = h.count.Load()
		next[port] = cs[port].nextTime(counts[port])
		in[port] = cs[port].val
	}

	// Controlling-value lookahead for gates (optional): if inputs holding the
	// controlling value pin the output, it cannot change before the last of
	// them can, so events on the other inputs below that bound are consumed
	// without invoking the model, as in the paper's AND-gate example.
	effValid := minValid
	if s.cfg.GateLookahead {
		if ctrl, ok := circuit.ControllingValue(el.Kind); ok {
			tau := int64(-1)
			for port := range cs {
				if circuit.Controlled(cs[port].val, ctrl) {
					tau = max(tau, changeBound(next[port], vts[port]))
				}
			}
			if tau > effValid {
				// Skip-consume everything that provably cannot matter.
				for port := range cs {
					for limit := min(tau, vts[port]); next[port] < limit; {
						checkBelow("consumed event time", next[port], vts[port])
						next[port] = cs[port].take(counts[port])
						w.wc.EventsUsed++
					}
					in[port] = cs[port].val
				}
				effValid = tau
			}
		}
	}

	// Step 4: consume events before min-valid in merged time order; every
	// 64th merged time point polls the cancellation flag and heartbeats.
	for points := 1; ; points++ {
		tmin := minValid
		for _, t := range next {
			tmin = min(tmin, t)
		}
		if tmin == minValid {
			break
		}
		for port, t := range next {
			if t == tmin {
				checkBelow("consumed event time", t, minValid)
				next[port] = cs[port].take(counts[port])
				in[port] = cs[port].val
				w.wc.EventsUsed++
			}
		}
		el.Eval(in, s.state[e], out)
		w.wc.ModelCalls++
		if s.cfg.CostSpin > 0 {
			circuit.Spin(el.Cost * s.cfg.CostSpin)
		}
		for p, n := range el.Out {
			if !out[p].Equal(s.hist[n].last) {
				w.appendEvent(n, circuit.Time(tmin)+el.Delay, out[p])
				appended[p] = true
			}
		}
		if points%64 == 0 {
			if s.cfg.Guard.Cancelled() {
				break
			}
			s.cfg.Guard.Heartbeat(w.id)
		}
	}

	// Lookahead for clocked elements: the output cannot change until the
	// next event on a trigger input (e.g. the next clock event for a DFF),
	// so the output's validity extends to that point even while the data
	// inputs lag. Every event below minValid was consumed above, so a
	// pending trigger event — or, when none is queued, the trigger node's
	// valid-time — bounds the first possible output change, and a pending
	// event also sets need (see the package comment).
	need := minValid + 1
	if trig := circuit.TriggerPorts(el.Kind); trig != nil && !s.cfg.NoLookahead {
		bound, pending := horizon, false // pending: bound is an event, not a valid-time
		for _, port := range trig {
			if tb := changeBound(next[port], vts[port]); tb < bound {
				bound, pending = tb, next[port] != noEvent
			}
		}
		if bound > effValid {
			effValid = bound
			if pending {
				need = bound + 1
			}
		}
	}
	s.ctl[e].need.Store(need)
	recheck := need <= horizon // the settle re-check; see the package comment
	for i := 0; recheck && i < len(el.In); i++ {
		recheck = s.hist[el.In[i]].validTo.Load() >= need
	}
	if recheck {
		w.queue(e)
	}

	// Step 5: publish each output's new events, advance its valid time and
	// stimulate fan-out wherever new behaviour appeared. Under Chandy-Misra
	// the valid-times stay frozen until the global deadlock-recovery pass.
	for p, n := range el.Out {
		h := &s.hist[n]
		if appended[p] {
			h.count.Store(h.n)
		}
		old := h.validTo.Load()
		newValid := old
		if !s.eng.deadlockRecovery {
			newValid = min(effValid+int64(el.Delay), horizon)
		}
		switch {
		case newValid > old:
			h.setValid(newValid) // before any fan-out's need is read
			w.wake(n, old, newValid)
			if newValid == horizon {
				w.release(h)
			}
		case appended[p]:
			for _, pr := range s.c.Nodes[n].Fanout {
				w.activate(pr.Elem)
			}
		}
	}
}

// wake stimulates the fan-out of node n after its valid-time advanced from
// old to newValid: every element for which that is new usable behaviour.
// An element fed through a non-trigger port is skipped unless the advance
// crossed the threshold it published.
func (w *worker) wake(n circuit.NodeID, old, newValid int64) {
	s := w.s
	// Under GateLookahead a controlling input acts like a trigger on any
	// port, so every advance activates the whole fan-out.
	threshold := !s.cfg.GateLookahead
	for _, pr := range s.c.Nodes[n].Fanout {
		ctl := &s.ctl[pr.Elem]
		if threshold && ctl.trig>>uint(pr.Port)&1 == 0 {
			if need := ctl.need.Load(); need <= old || need > newValid {
				continue
			}
		}
		w.activate(pr.Elem)
	}
}

// recoverDeadlock is the Chandy-Misra "update the clock-values and restart"
// step, run single-threaded between rounds while every worker is stopped.
// Each node's valid-time advances to the fixpoint of
//
//	validTo(out) = min over inputs of min(validTo(in), first unevaluated
//	               event time on in) + delay
//
// (an output is only materialised up to the driver's first unconsumed input
// event), and every element that gained consumable events is re-queued.
// It reports whether a new round is worth running.
func (s *sim) recoverDeadlock() bool {
	horizon := int64(s.cfg.Horizon)
	firstPending := func(e circuit.ElemID, port int, n circuit.NodeID) int64 {
		return s.cursors[e][port].nextTime(s.hist[n].count.Load())
	}
	changed, anyAdvance := true, false
	for changed {
		changed = false
		for i := range s.c.Elems {
			el := &s.c.Elems[i]
			if el.IsGenerator() {
				continue
			}
			bound := horizon
			for port, n := range el.In {
				bound = min(bound, s.hist[n].validTo.Load(), firstPending(el.ID, port, n))
			}
			newValid := min(bound+int64(el.Delay), horizon)
			for _, n := range el.Out {
				h := &s.hist[n]
				if newValid > h.validTo.Load() {
					h.setValid(newValid)
					changed, anyAdvance = true, true
				}
			}
		}
	}
	if !anyAdvance {
		return false
	}
	// Restart: queue every element that now has a consumable event or a
	// fresher input horizon than its outputs reflect.
	queued := false
	for i := range s.c.Elems {
		el := &s.c.Elems[i]
		if el.IsGenerator() {
			continue
		}
		minValid, first := horizon, horizon
		for port, n := range el.In {
			minValid = min(minValid, s.hist[n].validTo.Load())
			first = min(first, firstPending(el.ID, port, n))
		}
		if first < minValid {
			s.enqueue(el.ID)
			queued = true
			continue
		}
		// Pure valid-time propagation through this element was already
		// handled by the fixpoint above: that was its activation at minValid,
		// so the threshold moves as if it had run.
		s.ctl[i].need.Store(minValid + 1)
	}
	return queued
}

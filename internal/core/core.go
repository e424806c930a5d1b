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
// A history is a forward-linked list of chunks with headers of their own.
// A node's first chunk, firstSz slots, lives in the run state (below); the
// slots of every later chunk are carved from the writing worker's
// pointer-free block of blockSz events, each chunk as long as the history
// before it, up to chunkSz slots. An event is 24 bytes: its time and its
// value's two bit planes in the encoding of logic.Value.Planes, the width
// being the node's; appendEvent encodes once and a cursor decodes once per
// consumed event. Only the writer's tail, the cursors and the first chunk
// point at later headers, and the first chunk only until its last reader
// leaves it: it counts the cursors still in it, and the one that leaves
// last unlinks it from the rest (one nobody reads never links), the paper's
// "the storage for the events on node 1 can be freed" once every fan-out
// element has consumed them. So a chunk every cursor has passed is
// unreachable, and a block, holding nothing but its own bytes, is freed
// once no live chunk points into it: the paper's asynchronous garbage
// collection of consumed events is the Go collector's, during the run too,
// because a worker holds the blocks it carved only through weak pointers.
//
// Run states. Everything a run writes — the history, first-chunk, cursor,
// element-state and control slabs, the placement (owners, ranks, trigger
// masks), the workers with their ready sets and queues — depends on the
// circuit only through its wiring, node widths and element costs, and on
// the configuration only through the worker count and NoLookahead. It is
// built once per such key (stateKey) and kept between runs in idle.Runs,
// the cache that also holds the plane core's machines: a run checks a state
// out exclusively, or builds one on a miss, and a run that completed hands
// it back once the report has copied its finals, with the blocks its
// workers carved that are still alive on their free lists, to be carved by
// the next run before it makes new ones. A cancelled, stalled or panicked
// run may leave ids queued, so its state is dropped. Going idle resets the
// histories to X at their first chunks, the cursors to the first chunks,
// need to 1 and the queued flags; a run's start initialises the element
// state, zeroes the counters and writes the generator waveforms again, all
// from the run's own circuit, which also gives every delay and parameter
// the run reads. A reused slot is not cleared: a cursor reads a slot only
// below a published count, so only slots written this run.
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
// on the other inputs cannot reach the outputs. Only a trigger event that
// can change the outputs stops the lookahead (circuit.TriggerActs): a
// flip-flop's falling clock edge, or its reset going low, is passed over,
// so a register's output valid-time crosses a whole clock period in one
// wave instead of stopping at each of its two edges. A producer that
// advances node n from old to new stores validTo and then loads need, and
// activates a fan-out element only if old < need <= new and every input of
// the element has reached need: the advance that brings the last input to
// need wakes the element, not each one. An element whose need is 1 (it
// has never run, or ran at valid-time 0) is woken by the crossing alone:
// its first activation advances its outputs to its delay even at minimum
// valid-time 0, and a combinational loop whose nodes all start at 0 gets
// moving only through such first activations. Inputs on trigger ports
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
// its producer then loads A's need (or a later need, from a later
// activation), which passes old < need <= new, and then loads every input's
// valid-time: each input reached need by this store or by an earlier one,
// so all pass — or need is 1, or the port is a trigger port, and the test
// is skipped. The push either queues the element or, dropped as a
// duplicate, finds an activation still to run. Either way A was not the
// last. Events need no re-check: one published with a valid-time advance
// lies at or past the old valid-time, at least the minimum A read, so by
// the definition of need it gives the element nothing to do before every
// input has passed need — a lookahead that passed over a falling edge at t
// < T loses nothing, because consuming it cannot change the outputs, so
// nothing can happen before T is consumed at minimum valid-time T+1 — and
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
	"crypto/sha256"
	"encoding/binary"
	"math"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"
	"weak"

	"parsim/internal/analyze"
	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/guard"
	"parsim/internal/idle"
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
	firstSz   = 4
	chunkSz   = 64
	blockSz   = 1024
	noEvent   = math.MaxInt64 // a cursor's next-event time when none is published
	beatEvery = 64
)

// planes is a node value in the encoding of logic.Value.Planes; the width
// is the node's.
type planes struct{ v, u uint64 }

func encode(x logic.Value) planes {
	v, u := x.Planes()
	return planes{v, u}
}

// value decodes p at the given width.
func (p planes) value(width int) logic.Value {
	x, err := logic.FromPlanes(p.v, p.u, width)
	if err != nil {
		panic(err) // an event is only ever written by encode at its node's width
	}
	return x
}

// event is one node value change: 24 bytes.
type event struct {
	t circuit.Time
	planes
}

// block is the unit of event storage: a worker carves chunks from one.
type block [blockSz]event

// hchunk is one chunk of a node's history, written before the count store
// that publishes its first event and read only below a count loaded after it.
type hchunk struct {
	base  int64 // history index of slots[0]
	slots []event
	next  *hchunk
	// readers counts, in a node's first chunk, the cursors that have not
	// left it yet; the last to leave unlinks next (see cursor.peek).
	readers atomic.Int32
}

// history is one node's behaviour over time. The writer side (n, tail, last,
// final) is only ever touched by the driving element's owner (or before the
// workers start); readers go through the atomics.
type history struct {
	count   atomic.Int64 // published events
	validTo atomic.Int64 // behaviour known for all t < validTo
	n       int64        // appended events, published or not; writer-only
	tail    *hchunk      // writer-only
	last    planes       // last appended-or-dropped value (dedup), writer-only
	final   planes       // last value applied before the horizon, writer-only
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

// sim is one run state: everything a run writes, built once per key and
// kept between runs in idle.Runs (see the package comment).
type sim struct {
	c   *circuit.Circuit // the run's; nil while idle
	cfg engine.Config
	eng eng

	hist    []history
	heads   []hchunk   // every node's first chunk, firstSz slots of one slab
	cursors [][]cursor // [elem][port]
	state   [][]logic.Value
	ctl     []elemCtl
	nrank   int // ready-set buckets: one per level, then the cycle-fed

	workers []*worker
	queues  [][]*spsc.Queue[circuit.ElemID] // [target][source]; no diagonal

	chaos *guard.ChaosProbe // captured once; nil on production runs

	bytes int // what the state pins while idle, its free blocks aside
}

// Run simulates the circuit with cfg.Workers lock-free workers. The guard
// contains worker panics, activations heartbeat the watchdog, and a run that
// goes passive with node valid-times short of the horizon self-reports the
// stall. A cancelled run stops at every worker's next queue poll (or within
// 64 merged time points of an activation) and returns the partial Report.
func (e eng) Run(ctx context.Context, c *circuit.Circuit, cfg engine.Config) (*engine.Report, error) {
	key := stateKey(c, cfg)
	s, ok := idle.Checkout[*sim](idle.Runs, key)
	if !ok {
		s = build(c, cfg)
	}
	s.start(c, cfg, e)

	start := time.Now()
	rounds := int64(0)
	for {
		rounds++
		s.runWorkers()
		if cfg.Guard().CutShort() || !e.deadlockRecovery || !s.recoverDeadlock() {
			break
		}
	}
	wall := time.Since(start)

	final := make([]logic.Value, len(c.Nodes))
	for i := range final {
		final[i] = s.hist[i].final.value(c.Nodes[i].Width)
	}
	rep := &engine.Report{Final: final, Stats: stats.Run{
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
	rep.Stats.Aggregate(wall, wc)
	err := engine.StallReport(ctx, e.name, c, cfg.Horizon, func(n circuit.NodeID) (int64, bool) {
		return s.hist[n].validTo.Load(), true
	})
	// Every worker has exited and nothing reads a history any more. Only a
	// run that completed hands its state back: it ended quiescent, with no
	// id in a ready set or queue. A cancelled, stalled or panicked run (a
	// panic trips the guard, which cancels ctx) may not have, and is
	// dropped.
	if err == nil && ctx.Err() == nil {
		s.park()
		idle.Runs.Checkin(key, s, s.pinned())
	}
	return rep, err
}

// builds counts the run states built (cache misses). Test hook: one build
// per key is pinned against it.
var builds atomic.Int64

// stateKey digests everything build reads from c and cfg: the wiring
// (StructureDigest), every node's width, every element's cost (the
// owners), the worker count and NoLookahead (the trigger masks). Two runs
// with one key can share a run state; what else a run reads of its
// circuit (delays, parameters, waveforms) start and process read from the
// run's own.
func stateKey(c *circuit.Circuit, cfg engine.Config) idle.Key {
	structure := c.StructureDigest()
	b := append(make([]byte, 0, len(structure)+16+len(c.Nodes)+2*len(c.Elems)), structure[:]...)
	b = binary.AppendVarint(b, int64(cfg.Workers))
	lookahead := byte(1)
	if cfg.NoLookahead {
		lookahead = 0
	}
	// The structure digest fixes the node and element counts, so the
	// varints that follow read back one way only.
	b = append(b, lookahead)
	for i := range c.Nodes {
		b = binary.AppendVarint(b, int64(c.Nodes[i].Width))
	}
	for i := range c.Elems {
		b = binary.AppendVarint(b, c.Elems[i].Cost)
	}
	return sha256.Sum256(b)
}

// build allocates a run state for every circuit with c's key under cfg —
// histories, first chunks, cursors, element state and control out of one
// slab each, the placement, and the workers with their ready sets and
// queues — at t=0 but for what start reads from the run's own circuit.
func build(c *circuit.Circuit, cfg engine.Config) *sim {
	builds.Add(1)
	p := cfg.Workers
	s := &sim{
		hist:    make([]history, len(c.Nodes)),
		heads:   make([]hchunk, len(c.Nodes)),
		cursors: make([][]cursor, len(c.Elems)),
		state:   make([][]logic.Value, len(c.Elems)),
		ctl:     make([]elemCtl, len(c.Elems)),
		workers: make([]*worker, p),
		queues:  make([][]*spsc.Queue[circuit.ElemID], p),
	}
	first := make([]event, firstSz*len(c.Nodes))
	for i := range s.heads {
		s.heads[i].slots = first[firstSz*i : firstSz*(i+1) : firstSz*(i+1)]
	}
	var nIn, nState int
	for i := range c.Elems {
		nIn += len(c.Elems[i].In)
		nState += c.Elems[i].NumStateVals()
	}
	cursors, state := make([]cursor, nIn), make([]logic.Value, nState)
	for i := range c.Elems {
		el := &c.Elems[i]
		n := el.NumStateVals()
		s.state[i], state = state[:n:n], state[n:]
		s.cursors[i], cursors = cursors[:len(el.In):len(el.In)], cursors[len(el.In):]
	}
	s.place(c, cfg)
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
	s.reset(c)
	s.bytes = idle.Size(s)
	return s
}

// reset restores what t=0 takes from c's key alone: X histories at their
// first chunks, cursors at the first chunks, need 1 and nothing queued.
func (s *sim) reset(c *circuit.Circuit) {
	for i := range s.hist {
		x := encode(logic.AllX(c.Nodes[i].Width))
		s.heads[i].next = nil
		s.heads[i].readers.Store(int32(len(c.Nodes[i].Fanout)))
		poison(s.heads[i].slots)
		h := &s.hist[i]
		h.count.Store(0)
		h.validTo.Store(0)
		h.n, h.tail, h.last, h.final = 0, &s.heads[i], x, x
	}
	for i := range c.Elems {
		for port, n := range c.Elems[i].In {
			s.cursors[i][port] = cursor{chunk: &s.heads[n], val: logic.AllX(c.Nodes[n].Width)}
		}
		// A never-evaluated element has seen no input behaviour at all, so
		// the first advance of any input (from valid-time 0) must wake it.
		s.ctl[i].need.Store(1)
		s.ctl[i].queued = false
	}
}

// start readies a reset state for a run of c under cfg: element state
// initialised and counters zeroed, and per the paper, "evaluate all
// generator and constant nodes for all time", then stimulate their
// fan-outs. This runs before any worker starts, so the owners' ready sets
// can be filled directly.
func (s *sim) start(c *circuit.Circuit, cfg engine.Config, e eng) {
	s.c, s.cfg, s.eng, s.chaos = c, cfg, e, cfg.Guard().Chaos()
	for i := range c.Elems {
		if st := s.state[i]; len(st) > 0 {
			clear(st)
			c.Elems[i].InitState(st)
		}
	}
	for _, w := range s.workers {
		w.wc, w.popped = stats.WorkerCounters{}, 0
		w.created.Store(0)
		w.settled.Store(0)
	}
	for _, g := range c.Generators() {
		el := &c.Elems[g]
		n := el.Out[0]
		h := &s.hist[n]
		el.GenWaveform(cfg.Horizon, cfg.Guard().Cancelled, func(t circuit.Time, v logic.Value) {
			s.workers[0].appendEvent(n, t, v)
		})
		h.count.Store(h.n)
		h.setValid(int64(cfg.Horizon))
		s.workers[0].release(h)
		for _, pr := range c.Nodes[n].Fanout {
			s.enqueue(pr.Elem)
		}
	}
}

// park readies the state of a completed run to go idle: every worker's
// blocks still alive go to its free list, and the state is reset and lets
// go of the run's circuit and configuration.
func (s *sim) park() {
	for _, w := range s.workers {
		w.recycle()
	}
	s.reset(s.c)
	s.c, s.cfg, s.chaos = nil, engine.Config{}, nil
}

// pinned is the bytes an idle state pins: what build counted, and its free
// blocks.
func (s *sim) pinned() int {
	bytes := s.bytes
	for _, w := range s.workers {
		bytes += len(w.free) * int(unsafe.Sizeof(block{}))
	}
	return bytes
}

// place fixes every element's owner (partition.CostBlocks, shared with the
// event-driven engine), ready-set rank and trigger mask.
func (s *sim) place(c *circuit.Circuit, cfg engine.Config) {
	levels := analyze.LevelSchedule(c)
	owners := partition.CostBlocks(c, cfg.Workers)
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
		if el.IsGenerator() {
			continue
		}
		ctl.owner = owners[i]
		if !cfg.NoLookahead {
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
	blocks   []weak.Pointer[block]         // every block this worker carved this run
	free     []*block                      // blocks past runs left, to carve before new ones
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
		if s.cfg.Guard().Cancelled() {
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
			s.cfg.Guard().Heartbeat(w.id)
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
	p := encode(v)
	h.last = p
	if t >= s.cfg.Horizon {
		return // beyond the simulated window; dedup state still updated
	}
	h.final = p
	c := h.tail
	off := h.n - c.base
	if off == int64(len(c.slots)) {
		size := int(min(h.n, chunkSz))
		nc := &hchunk{base: h.n}
		if c.base > 0 || c.readers.Load() > 0 { // a first chunk nobody reads links to nothing
			c.next = nc
		}
		h.tail, c, off = nc, nc, 0
		if len(w.block) < size {
			w.newBlock()
		}
		c.slots, w.block, w.carved = w.block[:size], w.block[size:], c
	}
	c.slots[off] = event{t, p}
	h.n++
	w.wc.NodeUpdates++
	if s.cfg.Probe != nil {
		s.cfg.Probe.OnChange(n, t, v)
	}
}

// newBlock starts a block to carve from, one off the free list if it has
// any. The worker keeps only a weak pointer to it, so that once every
// cursor has passed the chunks carved from it the collector frees it during
// the run.
func (w *worker) newBlock() {
	var b *block
	if n := len(w.free); n > 0 {
		b, w.free[n-1], w.free = w.free[n-1], nil, w.free[:n-1]
	} else {
		b = new(block)
	}
	poison(b[:])
	w.blocks = append(w.blocks, weak.Make(b))
	w.block = b[:]
}

// recycle moves the blocks this worker carved that are still alive to its
// free list, once the run is over.
func (w *worker) recycle() {
	for _, r := range w.blocks {
		if b := r.Value(); b != nil {
			w.free = append(w.free, b)
		}
	}
	clear(w.blocks)
	w.blocks, w.block, w.carved = w.blocks[:0], nil, nil
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
		c := cu.chunk
		cu.chunk = c.next
		// A node's first chunk lives in the run state, so once no cursor
		// needs its link the link goes: the chunks after it are then held
		// by the cursors and the writer alone.
		if c.base == 0 && c.readers.Add(-1) == 0 {
			c.next = nil
		}
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

// nextActing is the time of the first unconsumed event below count that
// can change the outputs of a k element through a trigger port
// (circuit.TriggerActs), or noEvent; it consumes nothing.
func (cu *cursor) nextActing(count int64, k circuit.Kind) int64 {
	c := cu.chunk
	for pos := cu.pos; pos < count; pos++ {
		for pos >= c.base+int64(len(c.slots)) {
			c = c.next
		}
		if ev := &c.slots[pos-c.base]; circuit.TriggerActs(k, ev.value(cu.val.Width())) {
			return int64(ev.t)
		}
	}
	return noEvent
}

// take consumes the event the last peek returned and returns the time of
// the one after it.
func (cu *cursor) take(count int64) int64 {
	checkBelow("slot read", cu.pos, count)
	ev := &cu.chunk.slots[cu.pos-cu.chunk.base]
	checkWritten(ev.t)
	cu.val = ev.value(cu.val.Width())
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
		s.cfg.Guard().Heartbeat(w.id)
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
			if encode(out[p]) != s.hist[n].last {
				w.appendEvent(n, circuit.Time(tmin)+el.Delay, out[p])
				appended[p] = true
			}
		}
		if points%64 == 0 {
			if s.cfg.Guard().Cancelled() {
				break
			}
			s.cfg.Guard().Heartbeat(w.id)
		}
	}

	// Lookahead for clocked elements: the output cannot change until the
	// next trigger event that can change it (a DFF's next clock event that
	// is not a falling edge), so the output's validity extends to that
	// point even while the data inputs lag. Every event below minValid was
	// consumed above, so a pending acting trigger event — or, when none is
	// published, the trigger node's valid-time — bounds the first possible
	// output change, and a pending event also sets need (see the package
	// comment).
	need := minValid + 1
	if trig := circuit.TriggerPorts(el.Kind); trig != nil && !s.cfg.NoLookahead {
		bound, pending := horizon, false // pending: bound is an event, not a valid-time
		for _, port := range trig {
			tb, ev := vts[port], false
			if next[port] != noEvent {
				if t := cs[port].nextActing(counts[port], el.Kind); t != noEvent {
					tb, ev = t, true
				}
			}
			if tb < bound {
				bound, pending = tb, ev
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
	if need <= horizon && s.reached(el, need) { // the settle re-check; see the package comment
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
// crossed the threshold it published and every other input has reached it
// too; one that has never run past valid-time 0 (need <= 1) is woken by
// the crossing alone.
func (w *worker) wake(n circuit.NodeID, old, newValid int64) {
	s := w.s
	// Under GateLookahead a controlling input acts like a trigger on any
	// port, so every advance activates the whole fan-out.
	threshold := !s.cfg.GateLookahead
	for _, pr := range s.c.Nodes[n].Fanout {
		ctl := &s.ctl[pr.Elem]
		if threshold && ctl.trig>>uint(pr.Port)&1 == 0 {
			need := ctl.need.Load()
			if need <= old || need > newValid || need > 1 && !s.reached(&s.c.Elems[pr.Elem], need) {
				continue
			}
		}
		w.activate(pr.Elem)
	}
}

// reached reports whether every input of el is valid to need.
func (s *sim) reached(el *circuit.Element, need int64) bool {
	for _, n := range el.In {
		if s.hist[n].validTo.Load() < need {
			return false
		}
	}
	return true
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

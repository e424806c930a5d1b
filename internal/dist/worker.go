package dist

import (
	"runtime"
	"time"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/guard"
	"parsim/internal/logic"
	"parsim/internal/stats"
)

// cursor is one (element, input port) consumer position into a replica.
type cursor struct {
	pos int64
	val logic.Value
}

type worker struct {
	c     *circuit.Circuit
	cfg   engine.Config
	id, p int
	peers []*worker

	elems     []circuit.ElemID
	elemOwner []int

	inbox   chan msg
	tokenIn chan token
	done    chan struct{}
	ctxDone <-chan struct{}
	cut     bool              // left on ctxDone, not on declared termination
	chaos   *guard.ChaosProbe // captured once; nil on production runs

	subscribers map[circuit.NodeID][]int

	replicas map[circuit.NodeID]*replica
	readers  map[circuit.NodeID][]*cursor
	cursors  map[circuit.ElemID][]cursor
	state    map[circuit.ElemID][]logic.Value

	queue   []circuit.ElemID
	inQueue []bool // indexed by global ElemID

	// Staged output events for the element currently being evaluated.
	staged map[circuit.NodeID][]event

	// Safra termination detection state.
	black        bool
	msgCount     int64 // basic messages sent minus received
	holdingToken bool
	heldToken    token
	probeOut     bool // worker 0: a probe is circulating

	// Statistics. Plain fields: each worker struct lives inside one
	// goroutine and is aggregated only after wg.Wait().
	wc stats.WorkerCounters

	inBuf, outBuf []logic.Value
}

func newWorker(c *circuit.Circuit, cfg engine.Config, id, p int,
	elems []circuit.ElemID, elemOwner []int) *worker {
	w := &worker{
		c:           c,
		cfg:         cfg,
		id:          id,
		p:           p,
		elems:       elems,
		elemOwner:   elemOwner,
		inbox:       make(chan msg, 256),
		tokenIn:     make(chan token, 1),
		subscribers: make(map[circuit.NodeID][]int),
		replicas:    make(map[circuit.NodeID]*replica),
		readers:     make(map[circuit.NodeID][]*cursor),
		cursors:     make(map[circuit.ElemID][]cursor),
		state:       make(map[circuit.ElemID][]logic.Value),
		inQueue:     make([]bool, len(c.Elems)),
		staged:      make(map[circuit.NodeID][]event),
		chaos:       cfg.Guard().Chaos(),
	}
	for _, e := range elems {
		el := &c.Elems[e]
		if n := el.NumStateVals(); n > 0 {
			st := make([]logic.Value, n)
			el.InitState(st)
			w.state[e] = st
		}
		cs := make([]cursor, len(el.In))
		for port, n := range el.In {
			w.replicaFor(n)
			cs[port] = cursor{val: logic.AllX(c.Nodes[n].Width)}
		}
		w.cursors[e] = cs
		for port, n := range el.In {
			w.readers[n] = append(w.readers[n], &cs[port])
		}
		for _, n := range el.Out {
			w.replicaFor(n)
		}
	}
	return w
}

// replicaFor returns (creating if needed) the local view of a node.
func (w *worker) replicaFor(n circuit.NodeID) *replica {
	if r, ok := w.replicas[n]; ok {
		return r
	}
	x := logic.AllX(w.c.Nodes[n].Width)
	r := &replica{last: x, final: x}
	w.replicas[n] = r
	return r
}

// append records one owned-node change locally (dedup is the caller's job
// for generators; evalElement dedups through last).
func (w *worker) append(n circuit.NodeID, t circuit.Time, v logic.Value) {
	r := w.replicas[n]
	r.last = v
	if t >= w.cfg.Horizon {
		return
	}
	r.final = v
	r.events = append(r.events, event{t: t, v: v})
	w.wc.NodeUpdates++
	if w.cfg.Probe != nil {
		w.cfg.Probe.OnChange(n, t, v)
	}
}

func (w *worker) advanceValidTo(n circuit.NodeID, t circuit.Time) bool {
	r := w.replicas[n]
	if t > w.cfg.Horizon {
		t = w.cfg.Horizon
	}
	if t > r.validTo {
		r.validTo = t
		return true
	}
	return false
}

// activateLocal queues an owned element.
func (w *worker) activateLocal(e circuit.ElemID) {
	if w.elemOwner[e] != w.id || w.inQueue[e] {
		return
	}
	if w.chaos != nil && w.chaos.DropWakeup() {
		// Injected lost wakeup: the element is never queued, the workers
		// go passive, Safra's ring declares termination, and the run's
		// completion check self-reports the stall.
		return
	}
	w.inQueue[e] = true
	w.queue = append(w.queue, e)
}

// preStartFlush runs before goroutines start: deliver seeded generator
// behaviour directly into subscriber replicas and activate consumers.
func (w *worker) preStartFlush() {
	for _, g := range w.c.Generators() {
		if w.elemOwner[g] != w.id {
			continue
		}
		n := w.c.Elems[g].Out[0]
		r := w.replicas[n]
		for _, sub := range w.subscribers[n] {
			peer := w.peers[sub]
			pr := peer.replicaFor(n)
			pr.events = append(pr.events, r.events...)
			pr.validTo = r.validTo
			pr.last = r.last
		}
		for _, pr := range w.c.Nodes[n].Fanout {
			w.peers[w.elemOwner[pr.Elem]].activateLocal(pr.Elem)
		}
	}
}

// send delivers a basic message, draining our own inbox if the destination
// is full so that cycles of full buffers cannot deadlock.
func (w *worker) send(to int, m msg) {
	w.black = true
	w.msgCount++
	w.wc.Messages++
	for {
		if w.cfg.Guard().Cancelled() {
			return // receiver may have exited; abandon the message
		}
		select {
		case w.peers[to].inbox <- m:
			return
		default:
			// Destination full: make progress on our own mail so cycles of
			// full buffers cannot deadlock, and yield so the receiver runs.
			w.drainInbox()
			runtime.Gosched()
		}
	}
}

// handleMsg applies a remote node update. Receiving makes us black
// (Safra's rule for asynchronous channels).
func (w *worker) handleMsg(m msg) {
	w.black = true
	w.msgCount--
	r := w.replicaFor(m.node)
	r.events = append(r.events, m.events...)
	if m.validTo > r.validTo {
		r.validTo = m.validTo
	}
	if len(m.events) > 0 {
		r.last = m.events[len(m.events)-1].v
	}
	for _, pr := range w.c.Nodes[m.node].Fanout {
		w.activateLocal(pr.Elem)
	}
}

// drainInbox handles all currently queued mail without blocking.
func (w *worker) drainInbox() {
	for {
		select {
		case m := <-w.inbox:
			w.handleMsg(m)
		default:
			return
		}
	}
}

func (w *worker) run() {
	for {
		if w.cfg.Guard().Cancelled() {
			return // all workers poll the flag, so the gang exits together
		}
		w.drainInbox()
		if len(w.queue) > 0 {
			e := w.queue[0]
			w.queue = w.queue[1:]
			w.inQueue[e] = false
			w.evalElement(e)
			continue
		}

		// Passive. Forward or initiate the termination token.
		if w.holdingToken {
			w.holdingToken = false
			if w.forwardToken(w.heldToken) {
				return
			}
			continue
		}
		if w.id == 0 && !w.probeOut {
			if w.p == 1 {
				// Ring of one: passive with no mail means done.
				return
			}
			w.probeOut = true
			w.black = false
			w.peers[1].tokenIn <- token{}
			continue
		}

		t0 := time.Now()
		w.wc.IdlePolls++
		select {
		case m := <-w.inbox:
			w.wc.Idle += time.Since(t0)
			w.handleMsg(m)
		case tok := <-w.tokenIn:
			w.wc.Idle += time.Since(t0)
			w.heldToken = tok
			w.holdingToken = true
		case <-w.done:
			w.wc.Idle += time.Since(t0)
			return
		case <-w.ctxDone:
			w.wc.Idle += time.Since(t0)
			w.cut = true
			return
		}
	}
}

// forwardToken applies Safra's rules at a passive moment. Worker 0 judges
// the completed probe; everyone else accumulates and passes on. The return
// value tells the caller to exit (termination declared).
func (w *worker) forwardToken(tok token) bool {
	if w.id == 0 {
		if !tok.black && !w.black && tok.q+w.msgCount == 0 {
			close(w.done)
			return true
		}
		// Inconclusive probe; yield before the next one so probing cannot
		// crowd out the workers still computing.
		w.probeOut = false
		runtime.Gosched()
		return false
	}
	out := token{black: tok.black || w.black, q: tok.q + w.msgCount}
	w.black = false
	w.peers[(w.id+1)%w.p].tokenIn <- out
	return false
}

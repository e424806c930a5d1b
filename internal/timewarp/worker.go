package timewarp

import (
	"container/heap"
	"time"

	"parsim/internal/barrier"
	"parsim/internal/circuit"
	"parsim/internal/logic"
)

// twWorker is the per-goroutine context: a lazy min-heap over owned
// elements' next event times plus scratch buffers.
type twWorker struct {
	s  *sim
	id int

	h     elemHeap
	idGen int64
	// staged holds outgoing cross-partition events until the next send
	// window: mailboxes may only be appended to while their owner is not
	// draining them, which the round barriers guarantee for phase B.
	staged []stagedEvent
	inBuf  []logic.Value
	outBuf []logic.Value
}

type stagedEvent struct {
	owner int
	ev    twEvent
}

// nextID mints a message id unique across workers (worker id in the low
// bits) and increasing per worker.
func (wk *twWorker) nextID() int64 {
	wk.idGen++
	return wk.idGen*int64(wk.s.p) + int64(wk.id)
}

// push (re)registers an element in the scheduling heap.
func (wk *twWorker) push(e circuit.ElemID) {
	if t := wk.s.rts[e].nextTime(); t >= 0 {
		heap.Push(&wk.h, heapEntry{t: t, e: e})
	}
}

// deliver routes one event (or anti-event) to every consumer of the node:
// locally by direct insertion, remotely via staging (flushed into the
// mailboxes during the next safe window). Each remote worker receives one
// copy and fans it out to its own consumers on arrival.
func (s *sim) deliver(w int, ev twEvent) {
	wk := s.wks[w]
	var sentTo [8]int
	nSent := 0
	for _, pr := range s.c.Nodes[ev.node].Fanout {
		owner := s.elemOwner[pr.Elem]
		if owner == w {
			s.rts[pr.Elem].insertPort(s, w, ev, int(pr.Port))
			wk.push(pr.Elem)
			continue
		}
		dup := false
		for i := 0; i < nSent; i++ {
			if sentTo[i] == owner {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if nSent < len(sentTo) {
			sentTo[nSent] = owner
			nSent++
		} else {
			// Fanout wider than the dedup window: fall back to scanning the
			// staged list for this event.
			for _, se := range wk.staged {
				if se.owner == owner && se.ev.id == ev.id && se.ev.node == ev.node && se.ev.anti == ev.anti {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
		}
		wk.staged = append(wk.staged, stagedEvent{owner: owner, ev: ev})
	}
}

func (s *sim) worker(w int) {
	wk := s.wks[w]
	var sense barrier.Sense
	var idle time.Duration
	defer func() { s.wc[w].Idle = idle }()

	// Initial scheduling of seeded elements.
	for _, e := range s.owned[w] {
		wk.push(e)
	}

	for {
		// Phase A: drain cross-partition mail from the previous round.
		// Rollbacks triggered here stage their anti-messages; nothing may
		// touch another worker's mailbox while it could be draining.
		for src := 0; src < s.p; src++ {
			box := s.mailbox[w][src]
			for _, ev := range box {
				for _, pr := range s.c.Nodes[ev.node].Fanout {
					if s.elemOwner[pr.Elem] == w {
						s.rts[pr.Elem].insertPort(s, w, ev, int(pr.Port))
						wk.push(pr.Elem)
					}
				}
			}
			s.mailbox[w][src] = box[:0]
		}
		t0 := time.Now()
		s.wc[w].BarrierWaits++
		ok := s.bar.Wait(&sense)
		idle += time.Since(t0)
		if !ok {
			return
		}

		// Phase B: flush staged mail, then process optimistically, lowest
		// timestamp first. Every mailbox owner is busy in its own phase B,
		// so appends cannot race with drains.
		for _, se := range wk.staged {
			s.mailbox[se.owner][w] = append(s.mailbox[se.owner][w], se.ev)
		}
		wk.staged = wk.staged[:0]
		steps := 0
		for steps < stepsPerRound && wk.h.Len() > 0 {
			top := heap.Pop(&wk.h).(heapEntry)
			rt := s.rts[top.e]
			if t := rt.nextTime(); t < 0 || t != top.t {
				if t >= 0 {
					heap.Push(&wk.h, heapEntry{t: t, e: top.e})
				}
				continue // stale entry
			}
			if rt.process(s, w, wk) {
				steps++
			}
			wk.push(top.e)
		}
		// Flush mail staged by phase-B rollbacks and sends.
		for _, se := range wk.staged {
			s.mailbox[se.owner][w] = append(s.mailbox[se.owner][w], se.ev)
		}
		wk.staged = wk.staged[:0]

		t0 = time.Now()
		s.wc[w].BarrierWaits++
		ok = s.bar.Wait(&sense)
		idle += time.Since(t0)
		if !ok {
			return
		}

		// Phase C: GVT. Cancellation rides the existing round protocol:
		// worker 0 observes the flag here and declares the run done, every
		// worker sees s.done after the phase barrier, and the gang leaves
		// together at the end of phase D — no barrier is left short.
		if w == 0 {
			s.computeGVT()
			s.roundsRun++
			// Publishing the GVT makes livelock observable: rounds that
			// spin without advancing it never reset the watchdog.
			s.cfg.Guard().Progress(int64(s.gvt))
			if s.cfg.Guard().Cancelled() {
				s.done = true
			}
		}
		t0 = time.Now()
		s.wc[w].BarrierWaits++
		ok = s.bar.Wait(&sense)
		idle += time.Since(t0)
		if !ok {
			return
		}

		// Phase D: account saved state, then commit behind the GVT.
		var savedNow int64
		for _, e := range s.owned[w] {
			savedNow += s.rts[e].saved()
		}
		if savedNow > s.peakLog[w] {
			s.peakLog[w] = savedNow
		}
		upTo := s.gvt
		if upTo > s.cfg.Horizon {
			upTo = s.cfg.Horizon
		}
		for _, e := range s.owned[w] {
			s.rts[e].commit(s, w, upTo)
		}
		if s.done {
			return
		}
		t0 = time.Now()
		s.wc[w].BarrierWaits++
		ok = s.bar.Wait(&sense)
		idle += time.Since(t0)
		if !ok {
			return
		}
	}
}

// computeGVT scans every pending event — element queues and undelivered
// mail — for the minimum timestamp. Nothing below it can be rolled back.
func (s *sim) computeGVT() {
	min := circuit.Time(-1)
	consider := func(t circuit.Time) {
		if t >= 0 && (min < 0 || t < min) {
			min = t
		}
	}
	for _, rt := range s.rts {
		if rt == nil {
			continue
		}
		consider(rt.nextTime())
	}
	for w := range s.mailbox {
		for src := range s.mailbox[w] {
			for _, ev := range s.mailbox[w][src] {
				consider(ev.t)
			}
		}
	}
	if min < 0 || min >= s.cfg.Horizon {
		s.gvt = s.cfg.Horizon
		s.done = true
		return
	}
	s.gvt = min
}

type heapEntry struct {
	t circuit.Time
	e circuit.ElemID
}

type elemHeap []heapEntry

func (h elemHeap) Len() int { return len(h) }
func (h elemHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].e < h[j].e
}
func (h elemHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *elemHeap) Push(x any)   { *h = append(*h, x.(heapEntry)) }
func (h *elemHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

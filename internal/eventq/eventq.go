// Package eventq implements the pending-event structure used by the
// event-driven simulators: a timing wheel for the dense near future with a
// binary-heap overflow for far-future events. This is the classic logic
// simulator queue — O(1) scheduling for the common case of short gate
// delays, falling back gracefully for long delays such as clock periods.
//
// Buckets are recycled. PopNext lends the popped bucket's array to the
// caller until the next PopNext, which parks it on a queue-private free
// list; a slot that becomes occupied takes its array from that list. A run
// therefore allocates about one array per time that is pending at once and
// then nothing: a steady schedule/pop cycle is allocation-free.
package eventq

import (
	"parsim/internal/circuit"
	"parsim/internal/logic"
)

// Update is a scheduled node value change.
type Update struct {
	Node  circuit.NodeID
	Value logic.Value
}

// DefaultWheelSize is the wheel span in ticks used by New.
const DefaultWheelSize = 1024

type slot struct {
	t   circuit.Time
	ups []Update
}

type overflowEntry struct {
	t   circuit.Time
	seq int64 // insertion order, tie-break for equal times
	up  Update
}

// less orders the overflow heap by (time, insertion order). The seq
// tie-break keeps equal-time pops in scheduling order, so draining a queue
// — and re-draining one rebuilt from a checkpoint — is deterministic.
func (e overflowEntry) less(o overflowEntry) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	return e.seq < o.seq
}

// Queue is a single-owner (not concurrency-safe) pending-event queue.
// Times must be scheduled at or after the last popped time; the simulators
// guarantee this because every element delay is at least one tick.
type Queue struct {
	slots []slot
	mask  circuit.Time
	cur   circuit.Time // scan start: no pending time is below cur
	wheel int          // updates resident in the wheel
	over  []overflowEntry
	seq   int64 // next overflow insertion sequence number
	n     int

	free [][]Update // emptied bucket arrays awaiting reuse
	lent []Update   // the array the last PopNext returned
}

// New returns an empty queue with the default wheel size.
func New() *Queue { return NewSize(DefaultWheelSize) }

// NewSize returns an empty queue whose wheel spans the given number of
// ticks; size must be a power of two.
func NewSize(size int) *Queue {
	if size <= 0 || size&(size-1) != 0 {
		panic("eventq: wheel size must be a positive power of two")
	}
	return &Queue{slots: make([]slot, size), mask: circuit.Time(size - 1)}
}

// Len returns the number of pending updates.
func (q *Queue) Len() int { return q.n }

// Schedule adds an update at time t. Scheduling before the last popped time
// panics: it would mean a causality violation in the simulator.
func (q *Queue) Schedule(t circuit.Time, up Update) {
	if t < q.cur {
		panic("eventq: schedule in the past")
	}
	q.n++
	if t < q.cur+circuit.Time(len(q.slots)) {
		s := &q.slots[t&q.mask]
		if len(s.ups) == 0 {
			s.t = t
			s.ups = append(q.takeFree(), up)
			q.wheel++
			return
		}
		if s.t == t {
			s.ups = append(s.ups, up)
			q.wheel++
			return
		}
		// Slot collision with a different resident time (possible when the
		// resident entry predates several wheel advances): overflow.
	}
	q.pushOverflow(overflowEntry{t: t, up: up})
}

// Entry is one pending update together with its scheduled time, exposed for
// checkpointing.
type Entry struct {
	T     circuit.Time
	Node  circuit.NodeID
	Value logic.Value
}

// Dump returns the queue's scan cursor and every pending update in the exact
// order PopNext would deliver them. The receiver is not modified: the drain
// runs on a deep copy that shares neither the free list nor the lent array,
// so Dump is safe at any quiescent point and leaves a slice PopNext
// returned intact.
func (q *Queue) Dump() (circuit.Time, []Entry) {
	clone := &Queue{
		slots: make([]slot, len(q.slots)),
		mask:  q.mask,
		cur:   q.cur,
		wheel: q.wheel,
		over:  append([]overflowEntry(nil), q.over...),
		seq:   q.seq,
		n:     q.n,
	}
	for i := range q.slots {
		clone.slots[i].t = q.slots[i].t
		clone.slots[i].ups = append([]Update(nil), q.slots[i].ups...)
	}
	entries := make([]Entry, 0, q.n)
	for {
		t, ups, ok := clone.PopNext()
		if !ok {
			break
		}
		for _, up := range ups {
			entries = append(entries, Entry{T: t, Node: up.Node, Value: up.Value})
		}
	}
	return q.cur, entries
}

// Restore resets the queue to hold exactly the given entries with the scan
// cursor at cur. Entries must be in Dump order (non-decreasing time);
// rescheduling them in that order reproduces pop order deterministically.
// The free list and the lent array are dropped, not reused: a slice an
// earlier PopNext returned is never written by the restored queue.
func (q *Queue) Restore(cur circuit.Time, entries []Entry) {
	for i := range q.slots {
		q.slots[i] = slot{}
	}
	q.free, q.lent = nil, nil
	q.cur = cur
	q.wheel = 0
	q.over = nil
	q.seq = 0
	q.n = 0
	for _, e := range entries {
		q.Schedule(e.T, Update{Node: e.Node, Value: e.Value})
	}
}

// Peek returns the earliest pending time.
func (q *Queue) Peek() (circuit.Time, bool) {
	if q.n == 0 {
		return 0, false
	}
	t := q.scanWheel()
	if len(q.over) > 0 && (t < 0 || q.over[0].t < t) {
		t = q.over[0].t
	}
	return t, true
}

// PopNext removes and returns every update scheduled at the earliest pending
// time. The returned slice is lent to the caller: it stays valid, and no
// Schedule writes to it, until the next call to PopNext, which takes the
// array back for reuse.
func (q *Queue) PopNext() (circuit.Time, []Update, bool) {
	t, ok := q.Peek()
	if !ok {
		return 0, nil, false
	}
	if cap(q.lent) > 0 {
		q.free = append(q.free, q.lent[:0])
	}
	var ups []Update
	if s := &q.slots[t&q.mask]; len(s.ups) > 0 && s.t == t {
		ups, s.ups = s.ups, nil
		q.wheel -= len(ups)
	} else {
		ups = q.takeFree()
	}
	for len(q.over) > 0 && q.over[0].t == t {
		ups = append(ups, q.popOverflow().up)
	}
	q.lent = ups
	q.n -= len(ups)
	q.cur = t + 1
	return t, ups, true
}

// takeFree returns an empty recycled bucket array, or nil when none is
// parked.
func (q *Queue) takeFree() []Update {
	n := len(q.free)
	if n == 0 {
		return nil
	}
	b := q.free[n-1]
	q.free = q.free[:n-1]
	return b
}

// scanWheel returns the earliest resident wheel time, or -1 if the wheel is
// empty.
func (q *Queue) scanWheel() circuit.Time {
	if q.wheel == 0 {
		return -1
	}
	for i := circuit.Time(0); i < circuit.Time(len(q.slots)); i++ {
		t := q.cur + i
		if s := &q.slots[t&q.mask]; len(s.ups) > 0 && s.t == t {
			return t
		}
	}
	// Invariant: wheel entries always lie in [cur, cur+size).
	panic("eventq: wheel accounting corrupt")
}

func (q *Queue) pushOverflow(e overflowEntry) {
	e.seq = q.seq
	q.seq++
	q.over = append(q.over, e)
	i := len(q.over) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.over[i].less(q.over[parent]) {
			break
		}
		q.over[parent], q.over[i] = q.over[i], q.over[parent]
		i = parent
	}
}

func (q *Queue) popOverflow() overflowEntry {
	top := q.over[0]
	last := len(q.over) - 1
	q.over[0] = q.over[last]
	q.over = q.over[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && q.over[l].less(q.over[small]) {
			small = l
		}
		if r < last && q.over[r].less(q.over[small]) {
			small = r
		}
		if small == i {
			break
		}
		q.over[i], q.over[small] = q.over[small], q.over[i]
		i = small
	}
	return top
}

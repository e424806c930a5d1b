package timewarp

import (
	"fmt"
	"sort"

	"parsim/internal/circuit"
	"parsim/internal/logic"
)

// twDebug enables expensive invariant checking (tests only).
var twDebug = false

// twTraceElem, when >= 0, prints every step/rollback of that element.
var twTraceElem = circuit.ElemID(-1)

// check verifies cheap structural invariants (cursor bounds, snapshot
// consistency); the sortedness of a port queue is checked locally at each
// insertion instead of globally, keeping debug runs near full speed.
func (rt *elemRT) check(where string) {
	if !twDebug {
		return
	}
	for i := range rt.ports {
		q := &rt.ports[i]
		if q.cursor > len(q.events) {
			panic(fmt.Sprintf("timewarp: %s: elem %d port %d cursor %d > len %d",
				where, rt.id, i, q.cursor, len(q.events)))
		}
	}
	for p := range rt.el.Out {
		for li := range rt.log {
			if int(rt.log[li].sentFrom[p]) > len(rt.outLog[p]) {
				panic(fmt.Sprintf("timewarp: %s: elem %d sentFrom %d > outlog %d",
					where, rt.id, rt.log[li].sentFrom[p], len(rt.outLog[p])))
			}
		}
	}
}

// checkNeighbors verifies sortedness around one just-touched index.
func (rt *elemRT) checkNeighbors(port, idx int) {
	if !twDebug {
		return
	}
	q := &rt.ports[port]
	for _, j := range [2]int{idx, idx + 1} {
		if j <= 0 || j >= len(q.events) {
			continue
		}
		a, b := q.events[j-1], q.events[j]
		if a.t > b.t || (a.t == b.t && a.id >= b.id) {
			panic(fmt.Sprintf("timewarp: elem %d port %d unsorted at %d", rt.id, port, j))
		}
	}
}

// portQ is one input port's event list, sorted by (time, id). Events below
// cursor have been processed; the element's current input value on this
// port is the value of the last processed event.
type portQ struct {
	events []twEvent
	cursor int
}

// next returns the next unprocessed event time, or -1.
func (q *portQ) next() circuit.Time {
	if q.cursor < len(q.events) {
		return q.events[q.cursor].t
	}
	return -1
}

// val returns the port's input value as of the processed prefix.
func (q *portQ) val(width int) logic.Value {
	if q.cursor == 0 {
		return logic.AllX(width)
	}
	return q.events[q.cursor-1].v
}

// outRec is one output event this element has sent (still uncommitted).
type outRec struct {
	t  circuit.Time
	v  logic.Value
	id int64
}

// snapshot is the element's saved state before one processed step; popping
// it undoes the step.
type snapshot struct {
	t        circuit.Time
	cursors  []int32
	state    []logic.Value
	lastOut  []logic.Value
	sentFrom []int32 // outLog lengths before the step
}

// elemRT is one element's Time Warp runtime.
type elemRT struct {
	id      circuit.ElemID
	el      *circuit.Element
	ports   []portQ
	state   []logic.Value
	lastOut []logic.Value
	outLog  [][]outRec
	log     []snapshot
	lvt     circuit.Time
}

func newElemRT(c *circuit.Circuit, e circuit.ElemID) *elemRT {
	el := &c.Elems[e]
	rt := &elemRT{
		id:      e,
		el:      el,
		ports:   make([]portQ, len(el.In)),
		lastOut: make([]logic.Value, len(el.Out)),
		outLog:  make([][]outRec, len(el.Out)),
		lvt:     -1,
	}
	if n := el.NumStateVals(); n > 0 {
		rt.state = make([]logic.Value, n)
		el.InitState(rt.state)
	}
	for p, n := range el.Out {
		rt.lastOut[p] = logic.AllX(c.Nodes[n].Width)
	}
	return rt
}

// nextTime returns the earliest unprocessed input event time, or -1.
func (rt *elemRT) nextTime() circuit.Time {
	min := circuit.Time(-1)
	for i := range rt.ports {
		if t := rt.ports[i].next(); t >= 0 && (min < 0 || t < min) {
			min = t
		}
	}
	return min
}

// searchPos finds the sorted position of (t, id) in a port queue.
func searchPos(events []twEvent, t circuit.Time, id int64) int {
	return sort.Search(len(events), func(i int) bool {
		if events[i].t != t {
			return events[i].t > t
		}
		return events[i].id >= id
	})
}

// insertPort delivers one (possibly anti-) event to this element's port,
// rolling the element back first if the event lands in its past.
func (rt *elemRT) insertPort(s *sim, w int, ev twEvent, port int) {
	q := &rt.ports[port]
	// A straggler is any event at or before the element's local virtual
	// time: the element has already evaluated that moment (possibly with
	// this port silent) and must be rolled back — position in the port
	// queue alone cannot tell, because the port may have been empty.
	if ev.t <= rt.lvt {
		rt.rollback(s, w, ev.t)
	}
	if ev.anti {
		idx := searchPos(q.events, ev.t, ev.id)
		if idx >= len(q.events) || q.events[idx].id != ev.id || q.events[idx].t != ev.t {
			panic("timewarp: anti-message without matching positive")
		}
		if twDebug && idx < q.cursor {
			times := []circuit.Time{}
			for _, e := range q.events {
				times = append(times, e.t)
			}
			logT := []circuit.Time{}
			for _, l := range rt.log {
				logT = append(logT, l.t)
			}
			panic(fmt.Sprintf("timewarp: anti still in past after rollback: elem %d anti(t=%d id=%d) idx %d cursor %d lvt %d eventTimes %v logTimes %v",
				rt.id, ev.t, ev.id, idx, q.cursor, rt.lvt, times, logT))
		}
		q.events = append(q.events[:idx], q.events[idx+1:]...)
		s.wc[w].Cancelled++
		rt.check("anti+")
		return
	}
	idx := searchPos(q.events, ev.t, ev.id)
	if twDebug && idx < q.cursor {
		panic(fmt.Sprintf("timewarp: straggler still in past after rollback: elem %d idx %d cursor %d t %d lvt %d",
			rt.id, idx, q.cursor, ev.t, rt.lvt))
	}
	q.events = append(q.events, twEvent{})
	copy(q.events[idx+1:], q.events[idx:])
	q.events[idx] = ev
	rt.checkNeighbors(port, idx)
	rt.check("insert+")
}

// rollback undoes every processed step at time >= t, restoring snapshots
// and cancelling the outputs those steps sent. Anti-message delivery is
// deferred until the element is consistent again: a cancellation can
// cascade into another rollback that sends anti-messages right back here,
// and re-entering a half-undone element would corrupt its log.
func (rt *elemRT) rollback(s *sim, w int, t circuit.Time) {
	if rt.id == twTraceElem {
		fmt.Printf("TRACE elem %d rollback to t=%d lvt=%d logLen=%d\n", rt.id, t, rt.lvt, len(rt.log))
	}
	s.wc[w].Rollbacks++
	var antis []twEvent
	for len(rt.log) > 0 && rt.log[len(rt.log)-1].t >= t {
		entry := &rt.log[len(rt.log)-1]
		s.wc[w].RolledBack++
		for p := range rt.el.Out {
			lg := rt.outLog[p]
			for _, rec := range lg[entry.sentFrom[p]:] {
				antis = append(antis, twEvent{
					node: rt.el.Out[p], t: rec.t, v: rec.v, id: rec.id, anti: true,
				})
			}
			rt.outLog[p] = lg[:entry.sentFrom[p]]
		}
		for i := range rt.ports {
			rt.ports[i].cursor = int(entry.cursors[i])
		}
		copy(rt.state, entry.state)
		copy(rt.lastOut, entry.lastOut)
		rt.log = rt.log[:len(rt.log)-1]
	}
	if len(rt.log) > 0 {
		rt.lvt = rt.log[len(rt.log)-1].t
	} else {
		rt.lvt = -1
	}
	rt.check("rollback")
	for _, a := range antis {
		s.deliver(w, a)
	}
}

// process runs one optimistic step: consume the earliest unprocessed input
// time, evaluate, send changed outputs. Returns false when no input events
// are pending.
func (rt *elemRT) process(s *sim, w int, wk *twWorker) bool {
	tmin := rt.nextTime()
	if tmin < 0 {
		return false
	}
	// Save the before-state.
	snap := snapshot{
		t:        tmin,
		cursors:  make([]int32, len(rt.ports)),
		lastOut:  append([]logic.Value(nil), rt.lastOut...),
		sentFrom: make([]int32, len(rt.el.Out)),
	}
	for i := range rt.ports {
		snap.cursors[i] = int32(rt.ports[i].cursor)
	}
	if rt.state != nil {
		snap.state = append([]logic.Value(nil), rt.state...)
	}
	for p := range rt.el.Out {
		snap.sentFrom[p] = int32(len(rt.outLog[p]))
	}

	// Consume and evaluate.
	if cap(wk.inBuf) < len(rt.ports) {
		wk.inBuf = make([]logic.Value, len(rt.ports))
	}
	in := wk.inBuf[:len(rt.ports)]
	for i := range rt.ports {
		q := &rt.ports[i]
		for q.cursor < len(q.events) && q.events[q.cursor].t == tmin {
			q.cursor++
			s.wc[w].EventsUsed++
		}
		in[i] = q.val(s.c.Nodes[rt.el.In[i]].Width)
	}
	if cap(wk.outBuf) < len(rt.el.Out) {
		wk.outBuf = make([]logic.Value, len(rt.el.Out))
	}
	out := wk.outBuf[:len(rt.el.Out)]
	rt.el.Eval(in, rt.state, out)
	s.wc[w].Evals++
	if s.chaos != nil {
		s.chaos.Eval()
	}
	if s.cfg.CostSpin > 0 {
		circuit.Spin(rt.el.Cost * s.cfg.CostSpin)
	}
	if rt.id == twTraceElem {
		fmt.Printf("TRACE elem %d step t=%d in=%v out=%v lvt=%d\n", rt.id, tmin, in, out, rt.lvt)
	}
	for p, n := range rt.el.Out {
		if out[p].Equal(rt.lastOut[p]) {
			continue
		}
		rt.lastOut[p] = out[p]
		tOut := tmin + rt.el.Delay
		if tOut >= s.cfg.Horizon {
			continue
		}
		id := wk.nextID()
		rt.outLog[p] = append(rt.outLog[p], outRec{t: tOut, v: out[p], id: id})
		s.deliver(w, twEvent{node: n, t: tOut, v: out[p], id: id})
	}
	rt.log = append(rt.log, snap)
	rt.lvt = tmin
	return true
}

// commit releases everything behind the commit horizon: log entries,
// output records (which become the node's official history) and processed
// input events no longer needed for rollback.
func (rt *elemRT) commit(s *sim, w int, upTo circuit.Time) {
	k := 0
	for k < len(rt.log) && rt.log[k].t < upTo {
		k++
	}
	if k > 0 {
		rt.log = append(rt.log[:0:0], rt.log[k:]...)
	}
	for p, n := range rt.el.Out {
		lg := rt.outLog[p]
		k = 0
		for k < len(lg) && lg[k].t < upTo {
			s.final[n] = lg[k].v
			s.wc[w].NodeUpdates++
			if s.cfg.Probe != nil {
				s.cfg.Probe.OnChange(n, lg[k].t, lg[k].v)
			}
			k++
		}
		if k > 0 {
			rt.outLog[p] = append(lg[:0:0], lg[k:]...)
			// Surviving snapshots recorded outLog lengths that included the
			// dropped prefix.
			for li := range rt.log {
				rt.log[li].sentFrom[p] -= int32(k)
			}
		}
	}
	for i := range rt.ports {
		q := &rt.ports[i]
		// Drop committed events, but always keep the last one below the
		// commit horizon: rollback can rewind the cursor to the committed
		// boundary, and that event then carries the port's value. (Every
		// event below the GVT is processed, so this never exceeds cursor.)
		lb := 0
		for lb < len(q.events) && q.events[lb].t < upTo {
			lb++
		}
		k = lb - 1
		if k < 0 {
			k = 0
		}
		if k > q.cursor {
			k = q.cursor
		}
		if k > 0 {
			q.events = append(q.events[:0:0], q.events[k:]...)
			q.cursor -= k
			// Surviving snapshots index into the same port queue; their
			// saved cursors all lie beyond the dropped prefix (the dropped
			// events were processed before every surviving step).
			for li := range rt.log {
				rt.log[li].cursors[i] -= int32(k)
			}
		}
	}
	rt.commitCheck()
}

// commitCheck is called at the end of commit in debug mode.
func (rt *elemRT) commitCheck() { rt.check("commit") }

// saved returns the element's live saved-state footprint (snapshots plus
// uncommitted output records plus buffered input events).
func (rt *elemRT) saved() int64 {
	n := int64(len(rt.log))
	for p := range rt.outLog {
		n += int64(len(rt.outLog[p]))
	}
	for i := range rt.ports {
		n += int64(len(rt.ports[i].events))
	}
	return n
}

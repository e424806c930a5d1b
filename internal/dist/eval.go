package dist

import (
	"parsim/internal/circuit"
	"parsim/internal/logic"
)

// peek returns the next unconsumed event for one cursor into a replica.
func peek(r *replica, cu *cursor) (event, bool) {
	idx := cu.pos - r.base
	if idx >= int64(len(r.events)) {
		return event{}, false
	}
	return r.events[idx], true
}

// evalElement is the distributed counterpart of core's evaluation: consume
// every input event below min-valid in merged time order, append output
// changes to the owned replicas, then ship fresh behaviour to remote
// subscribers and activate local consumers.
func (w *worker) evalElement(e circuit.ElemID) {
	el := &w.c.Elems[e]
	w.wc.Evals++
	w.cfg.Guard().Heartbeat(w.id)
	if w.chaos != nil {
		w.chaos.Eval()
	}
	cs := w.cursors[e]

	minValid := int64(w.cfg.Horizon)
	for _, n := range el.In {
		if vt := int64(w.replicas[n].validTo); vt < minValid {
			minValid = vt
		}
	}

	if cap(w.inBuf) < len(cs) {
		w.inBuf = make([]logic.Value, len(cs))
	}
	in := w.inBuf[:len(cs)]
	if cap(w.outBuf) < len(el.Out) {
		w.outBuf = make([]logic.Value, len(el.Out))
	}
	out := w.outBuf[:len(el.Out)]

	// Reset per-output staging.
	for _, n := range el.Out {
		w.staged[n] = w.staged[n][:0]
	}

	// A single activation can consume an unbounded number of events, so the
	// cancellation flag is polled between merged time points too.
	for {
		if w.cfg.Guard().Cancelled() {
			break
		}
		tmin := circuit.Time(-1)
		for port, n := range el.In {
			if ev, ok := peek(w.replicas[n], &cs[port]); ok && int64(ev.t) < minValid {
				if tmin < 0 || ev.t < tmin {
					tmin = ev.t
				}
			}
		}
		if tmin < 0 {
			break
		}
		for port, n := range el.In {
			if ev, ok := peek(w.replicas[n], &cs[port]); ok && ev.t == tmin {
				cs[port].val = ev.v
				cs[port].pos++
				w.wc.EventsUsed++
			}
			in[port] = cs[port].val
		}
		el.Eval(in, w.state[e], out)
		w.wc.ModelCalls++
		if w.cfg.CostSpin > 0 {
			circuit.Spin(el.Cost * w.cfg.CostSpin)
		}
		for p, n := range el.Out {
			r := w.replicas[n]
			if out[p].Equal(r.last) {
				continue
			}
			t := tmin + el.Delay
			r.last = out[p]
			if t >= w.cfg.Horizon {
				continue
			}
			r.final = out[p]
			r.events = append(r.events, event{t: t, v: out[p]})
			w.staged[n] = append(w.staged[n], event{t: t, v: out[p]})
			w.wc.NodeUpdates++
			if w.cfg.Probe != nil {
				w.cfg.Probe.OnChange(n, t, out[p])
			}
		}
	}

	// Clocked-element lookahead, as in core: the output cannot change
	// before the next trigger-input event.
	effValid := minValid
	if trig := circuit.TriggerPorts(el.Kind); trig != nil {
		bound := int64(w.cfg.Horizon)
		for _, port := range trig {
			n := el.In[port]
			var tb int64
			if ev, ok := peek(w.replicas[n], &cs[port]); ok {
				tb = int64(ev.t)
			} else {
				tb = int64(w.replicas[n].validTo)
			}
			if tb < bound {
				bound = tb
			}
		}
		if bound > effValid {
			effValid = bound
		}
	}

	// Publish: advance valid times, activate local consumers, mail remote
	// subscribers.
	for _, n := range el.Out {
		newValid := circuit.Time(effValid) + el.Delay
		advanced := w.advanceValidTo(n, newValid)
		fresh := w.staged[n]
		if !advanced && len(fresh) == 0 {
			continue
		}
		for _, pr := range w.c.Nodes[n].Fanout {
			w.activateLocal(pr.Elem)
		}
		if subs := w.subscribers[n]; len(subs) > 0 {
			var evs []event
			if len(fresh) > 0 {
				evs = append([]event(nil), fresh...)
			}
			vt := w.replicas[n].validTo
			for _, sub := range subs {
				w.send(sub, msg{node: n, events: evs, validTo: vt})
			}
		}
		w.maybeReclaim(n)
	}
	for _, n := range el.In {
		w.maybeReclaim(n)
	}
}

// maybeReclaim compacts a replica's consumed prefix once it grows past the
// threshold — the explicit storage reclamation a distributed-memory port
// needs ("the storage for the events on node 1 can be freed").
func (w *worker) maybeReclaim(n circuit.NodeID) {
	r := w.replicas[n]
	if len(r.events) < reclaimThreshold {
		return
	}
	min := r.base + int64(len(r.events))
	for _, cu := range w.readers[n] {
		if cu.pos < min {
			min = cu.pos
		}
	}
	drop := min - r.base
	if drop <= 0 {
		return
	}
	kept := copy(r.events, r.events[drop:])
	// Zero the tail so reclaimed values do not linger.
	for i := kept; i < len(r.events); i++ {
		r.events[i] = event{}
	}
	r.events = r.events[:kept]
	r.base = min
}

package checkpoint

import (
	"cmp"
	"fmt"
	"slices"

	"parsim/internal/barrier"
	"parsim/internal/circuit"
	"parsim/internal/logic"
	"parsim/internal/stats"
	"parsim/internal/trace"
)

// Session is one run's checkpoint protocol, shared by every engine that
// snapshots at a quiescent point: the writer lifecycle, the periodic and
// drain captures, the snapshot header (engine, digest, step, worker rows),
// the probe-trace section and typed restore checks. An engine supplies only
// its own sections, through fill and restore callbacks. A nil *Session
// neither checkpoints nor resumes; the methods an engine calls
// unconditionally accept it.
type Session struct {
	c          *circuit.Circuit
	engine     string
	digest     [32]byte
	plan       Plan
	resumePath string
	resume     *Snapshot       // verified snapshot the next Begin restores
	rec        *trace.Recorder // the run's probe when it records history

	w     *Writer // the current pass's background writer
	start int64   // step the current pass started at
	saved int64   // step of the newest capture
	// err is the first capture failure. Worker 0 stores it before the
	// post-capture barrier release (an atomic edge), so the whole gang
	// observes it right after its uncounted Wait and exits together.
	err error
}

// Open resolves a run's checkpoint request: plan says where and how often
// to snapshot; resumeFrom, when set, is loaded, verified against the
// engine and content digest of (c, id) and its step checked against the
// horizon. When probe is a *trace.Recorder its history rides in every
// snapshot and is replayed on resume.
func Open(c *circuit.Circuit, id Identity, plan Plan, resumeFrom string, probe trace.Probe) (*Session, error) {
	digest, err := Digest(c, id)
	if err != nil {
		return nil, err
	}
	s := &Session{c: c, engine: id.Engine, digest: digest, plan: plan, resumePath: resumeFrom}
	s.rec, _ = probe.(*trace.Recorder)
	if resumeFrom == "" {
		return s, nil
	}
	if s.resume, err = Load(resumeFrom); err != nil {
		return nil, err
	}
	if err := Verify(resumeFrom, s.resume, id.Engine, digest); err != nil {
		return nil, err
	}
	if step := s.resume.Step; step < 0 || step >= id.Horizon {
		return nil, &MismatchError{Path: resumeFrom, Engine: id.Engine, Field: "step cursor",
			Want: fmt.Sprintf("in [0, %d)", id.Horizon), Got: fmt.Sprint(step)}
	}
	return s, nil
}

// Resume returns the verified snapshot the next Begin restores, or nil.
func (s *Session) Resume() *Snapshot {
	if s == nil {
		return nil
	}
	return s.resume
}

// Corrupt is the typed refusal of a snapshot section that fails the run's
// restore checks.
func (s *Session) Corrupt(field, format string, args ...any) error {
	return &CorruptError{Path: s.resumePath, Engine: s.engine, Field: field, Reason: fmt.Sprintf(format, args...)}
}

// Begin starts a pass of the run (a fault simulation runs several) and its
// writer. A pending resume snapshot restores this pass only: Begin checks
// the worker rows and the probe trace, restore checks and commits the
// engine's own sections, and only then is the trace replayed. A resumed
// pass skips the engine's t=0 initialisation, which the snapshot replaces
// wholesale (the generators' first updates are in the restored rows).
func (s *Session) Begin(workers int, restore func(*Snapshot) error) (resumed bool, err error) {
	if s == nil {
		return false, nil
	}
	snap := s.resume
	s.resume, s.start, s.saved, s.err = nil, 0, 0, nil
	if snap != nil {
		if len(snap.Workers) != workers {
			return false, s.Corrupt("worker rows", "snapshot has %d worker counter rows, want %d", len(snap.Workers), workers)
		}
		var vals []logic.Value
		if s.rec != nil && snap.HasTrace {
			vals = make([]logic.Value, len(snap.Trace))
			for i, tc := range snap.Trace {
				if vals[i], err = tc.Value.Unpack(); err != nil {
					return false, s.Corrupt("probe trace", "change %d: %v", i, err)
				}
				if tc.Node < 0 || int(tc.Node) >= len(s.c.Nodes) || vals[i].Width() != s.c.Nodes[tc.Node].Width {
					return false, s.Corrupt("probe trace", "change %d: no node %d of width %d", i, tc.Node, vals[i].Width())
				}
			}
		}
		if err := restore(snap); err != nil {
			return false, err
		}
		for i, v := range vals {
			s.rec.OnChange(circuit.NodeID(snap.Trace[i].Node), circuit.Time(snap.Trace[i].T), v)
		}
		s.start, s.saved = snap.Step, snap.Step
	}
	if s.plan.Path != "" && s.plan.Every > 0 {
		s.w = NewWriter(s.plan)
	}
	return snap != nil, nil
}

// Due is the gang engines' capture predicate for the top of step t. It is
// pure, so every worker agrees without communication.
func (s *Session) Due(t int64) bool {
	return s != nil && s.w != nil && t > s.start && t%s.plan.Every == 0
}

// DueSliding is the single-goroutine form: event-driven time skips idle
// steps, so the interval is a sliding threshold over simulated time rather
// than a modulus, and Ready gates it directly.
func (s *Session) DueSliding(step int64) bool {
	return s != nil && s.w != nil && step-s.saved >= s.plan.Every && s.w.Ready()
}

// Capture snapshots the quiesced state at the top of step — the header, a
// copy of rows and the probe trace here, the engine's own sections by fill
// (a deep copy: the simulation keeps mutating) — for the background writer
// to make durable off the critical path. A drain capture skips the Ready
// gate: Finish flushes it.
func (s *Session) Capture(step int64, rows []stats.WorkerCounters, fill func(*Snapshot)) error {
	if s == nil || s.w == nil {
		return nil
	}
	snap := &Snapshot{Engine: s.engine, Digest: s.digest, Step: step,
		Workers: append([]stats.WorkerCounters(nil), rows...)}
	if s.rec != nil {
		snap.HasTrace = true
		for _, n := range s.rec.Nodes() {
			for _, ch := range s.rec.History(n) {
				snap.Trace = append(snap.Trace, TraceChange{Node: int32(n), T: int64(ch.Time), Value: PackValue(ch.Value)})
			}
		}
		// (time, node) order, the order WriteVCD emits.
		slices.SortStableFunc(snap.Trace, func(a, b TraceChange) int { return cmp.Compare(a.T, b.T) })
	}
	fill(snap)
	s.saved = step
	if err := s.w.Save(snap); err != nil {
		s.err = cmp.Or(s.err, err)
	}
	return s.err
}

// Cross is the gang capture block at the top of a Due step t: one extra,
// uncounted barrier (the end-of-step one already synchronised the gang, so
// BarrierWaits match an uninterrupted run's) while worker 0 captures if
// Ready — a snapshot the throttled writer would coalesce away is wasted
// work. It reports false when the worker must leave its loop.
func (s *Session) Cross(id int, t int64, bar *barrier.Barrier, sense *barrier.Sense,
	rows []stats.WorkerCounters, fill func(*Snapshot)) bool {
	if id == 0 && s.w.Ready() {
		s.Capture(t, rows, fill)
	}
	return bar.Wait(sense) && s.err == nil
}

// Drain ends a gang's pass. A gang stopped cleanly at stopAt (> 0: worker
// 0 published it and every worker left at that step boundary) is at a
// quiescent point, captured so a drained run can resume; a guard trip
// aborts the barrier without publishing stopAt — that state is untrusted
// and deliberately not saved.
func (s *Session) Drain(stopAt int64, stopped bool, rows []stats.WorkerCounters, fill func(*Snapshot)) error {
	var err error
	if stopAt > 0 {
		err = s.Capture(stopAt, rows, fill)
	}
	return s.Finish(err, stopped)
}

// Finish ends the pass's writer. A pass that reached its horizon has
// nothing left to resume, so its pending capture is dropped instead of
// paying a useless fsync; a stopped one has Close flush it, so a drain's
// final capture is durable before the engine returns. It returns the first
// of err, a capture failure and a write failure.
func (s *Session) Finish(err error, stopped bool) error {
	if s == nil || s.w == nil {
		return err
	}
	if err == nil && !stopped {
		s.w.DiscardPending()
	}
	cerr := s.w.Close()
	s.w = nil
	return cmp.Or(err, s.err, cerr)
}

// PackScalar fills the scalar section of a sequential snapshot: node
// values and per-element state.
func (snap *Snapshot) PackScalar(vals []logic.Value, state [][]logic.Value) {
	snap.Values = PackValues(vals)
	snap.ElemState = make([][]RawValue, len(state))
	for i, st := range state {
		if len(st) > 0 {
			snap.ElemState[i] = PackValues(st)
		}
	}
}

// UnpackScalar validates the scalar section against the circuit — one
// value per node at the node's width, per element exactly the state values
// it keeps — and rebuilds it.
func (s *Session) UnpackScalar(snap *Snapshot) (vals []logic.Value, state [][]logic.Value, err error) {
	if vals, err = s.UnpackNodes("node values", snap.Values); err != nil {
		return nil, nil, err
	}
	elems := s.c.Elems
	if len(snap.ElemState) != len(elems) {
		return nil, nil, s.Corrupt("element state", "snapshot has %d element states for %d elements", len(snap.ElemState), len(elems))
	}
	state = make([][]logic.Value, len(elems))
	for i := range elems {
		if n := elems[i].NumStateVals(); len(snap.ElemState[i]) != n {
			return nil, nil, s.Corrupt("element state", "element %d has %d state values, want %d", i, len(snap.ElemState[i]), n)
		}
		if state[i], err = UnpackValues(snap.ElemState[i]); err != nil {
			return nil, nil, s.Corrupt("element state", "element %d: %v", i, err)
		}
	}
	return vals, state, nil
}

// UnpackNodes validates and rebuilds one value per circuit node, each at
// its node's width; field names the section in a refusal.
func (s *Session) UnpackNodes(field string, raw []RawValue) ([]logic.Value, error) {
	nodes := s.c.Nodes
	if len(raw) != len(nodes) {
		return nil, s.Corrupt(field, "snapshot has %d values for a %d-node circuit", len(raw), len(nodes))
	}
	vals, err := UnpackValues(raw)
	if err != nil {
		return nil, s.Corrupt(field, "%v", err)
	}
	for i := range nodes {
		if vals[i].Width() != nodes[i].Width {
			return nil, s.Corrupt(field, "node %d width %d, want %d", i, vals[i].Width(), nodes[i].Width)
		}
	}
	return vals, nil
}

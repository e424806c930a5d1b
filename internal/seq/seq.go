// Package seq implements the uniprocessor event-driven simulator: the
// paper's baseline algorithm and this repository's correctness oracle.
//
// For each active time step it performs the three classic phases:
//
//  1. update all scheduled nodes,
//  2. evaluate all elements connected to the changed nodes,
//  3. schedule all output nodes that change.
//
// All parallel simulators are cross-checked against the node histories this
// simulator produces.
package seq

import (
	"context"
	"fmt"
	"slices"
	"time"

	"parsim/internal/checkpoint"
	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/eventq"
	"parsim/internal/guard"
	"parsim/internal/logic"
	"parsim/internal/stats"
)

// eng registers the sequential simulator with the engine layer.
type eng struct{}

func (eng) Name() string { return "sequential" }

// Checkpoints makes eng an engine.Checkpointer: every point of this
// single-goroutine simulator's step loop is quiescent, so it snapshots
// between time steps, and a resumed run replays bit-identically to an
// uninterrupted one.
func (eng) Checkpoints() {}

// Run simulates the circuit on the calling goroutine. When the run is
// cancelled the simulator stops at the next time step and returns the
// partial Report. Panic containment lives in the engine layer.
func (eng) Run(_ context.Context, c *circuit.Circuit, cfg engine.Config) (*engine.Report, error) {
	if cfg.Workers > 1 {
		return nil, fmt.Errorf("parsim: the sequential algorithm is single-worker (got %d workers)", cfg.Workers)
	}
	s := newSim(c, cfg)
	if _, err := cfg.Ckpt().Begin(1, s.restore); err != nil {
		return nil, err
	}
	start := time.Now()
	runErr := s.run()
	s.wc.ModelCalls = s.wc.Evals
	s.res.Aggregate(time.Since(start), []stats.WorkerCounters{s.wc})
	return &engine.Report{Stats: s.res, Final: s.val}, runErr
}

func init() { engine.Register(eng{}, "seq") }

type sim struct {
	c   *circuit.Circuit
	cfg engine.Config
	res stats.Run
	wc  stats.WorkerCounters

	val       []logic.Value   // current node values
	projected []logic.Value   // last value scheduled for each node
	state     [][]logic.Value // per-element internal state
	q         *eventq.Queue

	genIDs  []circuit.ElemID
	genNext []circuit.Time // next change time per generator; -1 when exhausted

	activated []circuit.ElemID
	inList    []bool

	inBuf, outBuf []logic.Value

	chaos *guard.ChaosProbe // captured once; nil on production runs

	lastT circuit.Time // last completed step, -1 before the first

	co *collector // non-nil inside Collect
}

func newSim(c *circuit.Circuit, cfg engine.Config) *sim {
	s := &sim{
		c:   c,
		cfg: cfg,
		q:   eventq.New(),
		res: stats.Run{
			Algorithm: eng{}.Name(),
			Circuit:   c.Name,
			Horizon:   cfg.Horizon,
			Workers:   1,
		},
	}
	s.val = make([]logic.Value, len(c.Nodes))
	s.projected = make([]logic.Value, len(c.Nodes))
	for i := range c.Nodes {
		s.val[i] = logic.AllX(c.Nodes[i].Width)
		s.projected[i] = s.val[i]
	}
	s.state = make([][]logic.Value, len(c.Elems))
	for i := range c.Elems {
		if n := c.Elems[i].NumStateVals(); n > 0 {
			s.state[i] = make([]logic.Value, n)
			c.Elems[i].InitState(s.state[i])
		}
	}
	s.genIDs = c.Generators()
	s.genNext = make([]circuit.Time, len(s.genIDs))
	s.inList = make([]bool, len(c.Elems))
	s.lastT = -1
	s.chaos = cfg.Guard().Chaos()
	return s
}

// nextGenTime returns the earliest pending generator change time, or -1.
func (s *sim) nextGenTime() circuit.Time {
	next := circuit.Time(-1)
	for _, t := range s.genNext {
		if t >= 0 && (next < 0 || t < next) {
			next = t
		}
	}
	return next
}

func (s *sim) run() (err error) {
	ck, g := s.cfg.Ckpt(), s.cfg.Guard()
	defer func() { err = ck.Finish(err, g.CutShort()) }()
	for {
		if g.Cancelled() {
			// The step loop is quiescent here, so a drain can capture the
			// partial run for later resumption.
			return s.capture(int64(s.lastT) + 1)
		}
		// Earliest pending activity: scheduled events or generator changes.
		t := s.nextGenTime()
		if qt, ok := s.q.Peek(); ok && (t < 0 || qt < t) {
			t = qt
		}
		if t < 0 || t >= s.cfg.Horizon {
			return nil
		}
		s.cfg.Guard().Progress(int64(t))
		s.step(t)
		s.lastT = t
		if ck.DueSliding(int64(t) + 1) {
			if err := s.capture(int64(t) + 1); err != nil {
				return err
			}
		}
	}
}

func (s *sim) step(t circuit.Time) {
	s.res.TimeSteps++
	if s.co != nil {
		s.co.beginStep(t)
	}

	// Phase 1: update scheduled nodes.
	for i, gt := range s.genNext {
		if gt != t {
			continue
		}
		el := &s.c.Elems[s.genIDs[i]]
		s.applyUpdate(el.Out[0], t, el.GenValueAt(t))
		if next, ok := el.GenNextChange(t); ok && next < s.cfg.Horizon {
			s.genNext[i] = next
		} else {
			s.genNext[i] = -1
		}
	}
	if qt, ok := s.q.Peek(); ok && qt == t {
		_, ups, _ := s.q.PopNext()
		for _, u := range ups {
			s.applyUpdate(u.Node, t, u.Value)
		}
	}

	if s.cfg.CollectAvail {
		s.res.Avail.Observe(len(s.activated))
	}

	// Phase 2 and 3: evaluate activated elements, schedule changed outputs.
	slices.Sort(s.activated)
	for _, id := range s.activated {
		s.inList[id] = false
		s.evaluate(t, id)
	}
	s.activated = s.activated[:0]
}

// capture hands the checkpoint session all activity strictly before step.
func (s *sim) capture(step int64) error {
	return s.cfg.Ckpt().Capture(step, []stats.WorkerCounters{s.wc}, s.fill)
}

// fill writes the simulator's own snapshot sections: node and projected
// values, per-element state, the pending event queue in pop order,
// generator cursors and the event-driven step count.
func (s *sim) fill(snap *checkpoint.Snapshot) {
	snap.TimeSteps = s.res.TimeSteps
	snap.PackScalar(s.val, s.state)
	snap.Projected = checkpoint.PackValues(s.projected)
	snap.GenNext = make([]int64, len(s.genNext))
	for i, t := range s.genNext {
		snap.GenNext[i] = int64(t)
	}
	cur, entries := s.q.Dump()
	snap.QueueCur = int64(cur)
	snap.Events = make([]checkpoint.Event, len(entries))
	for i, e := range entries {
		snap.Events[i] = checkpoint.Event{T: int64(e.T), Node: int32(e.Node), Value: checkpoint.PackValue(e.Value)}
	}
}

// restore rebuilds the simulator's own state from a digest-verified
// snapshot, validating every structural property — lengths, node widths,
// event order — so a hand-crafted snapshot that passed the checksum cannot
// corrupt the run; failures are typed errors, never panics.
func (s *sim) restore(snap *checkpoint.Snapshot) error {
	ck := s.cfg.Ckpt()
	vals, state, err := ck.UnpackScalar(snap)
	if err != nil {
		return err
	}
	proj, err := ck.UnpackNodes("projected values", snap.Projected)
	if err != nil {
		return err
	}
	if len(snap.GenNext) != len(s.genNext) {
		return ck.Corrupt("generator cursors", "snapshot has %d generator cursors, want %d", len(snap.GenNext), len(s.genNext))
	}
	entries := make([]eventq.Entry, len(snap.Events))
	prev := snap.QueueCur
	for i, e := range snap.Events {
		if e.Node < 0 || int(e.Node) >= len(s.c.Nodes) {
			return ck.Corrupt("events", "event %d: node %d out of range", i, e.Node)
		}
		if e.T < prev {
			return ck.Corrupt("events", "event %d: time %d out of order (cursor %d)", i, e.T, prev)
		}
		prev = e.T
		v, err := e.Value.Unpack()
		if err != nil {
			return ck.Corrupt("events", "event %d: %v", i, err)
		}
		if v.Width() != s.c.Nodes[e.Node].Width {
			return ck.Corrupt("events", "event %d: width mismatch on node %d", i, e.Node)
		}
		entries[i] = eventq.Entry{T: circuit.Time(e.T), Node: circuit.NodeID(e.Node), Value: v}
	}
	// All validated; commit.
	s.val, s.projected, s.state = vals, proj, state
	for i, t := range snap.GenNext {
		s.genNext[i] = circuit.Time(t)
	}
	s.q.Restore(circuit.Time(snap.QueueCur), entries)
	s.wc = snap.Workers[0]
	s.res.TimeSteps = snap.TimeSteps
	s.lastT = circuit.Time(snap.Step) - 1
	return nil
}

func (s *sim) applyUpdate(n circuit.NodeID, t circuit.Time, v logic.Value) {
	if v.Equal(s.val[n]) {
		return
	}
	s.val[n] = v
	s.wc.NodeUpdates++
	if s.cfg.Probe != nil {
		s.cfg.Probe.OnChange(n, t, v)
	}
	producer := int32(-1)
	if s.co != nil {
		producer = s.co.onUpdate(n, t)
	}
	for _, pr := range s.c.Nodes[n].Fanout {
		if s.co != nil {
			s.co.onActivate(pr.Elem, producer)
		}
		if !s.inList[pr.Elem] {
			s.inList[pr.Elem] = true
			s.activated = append(s.activated, pr.Elem)
		}
	}
}

func (s *sim) evaluate(t circuit.Time, id circuit.ElemID) {
	el := &s.c.Elems[id]
	s.wc.Evals++
	if s.chaos != nil {
		s.chaos.Eval()
	}
	task := int32(-1)
	if s.co != nil {
		task = s.co.onEval(id, t)
	}
	if cap(s.inBuf) < len(el.In) {
		s.inBuf = make([]logic.Value, len(el.In))
	}
	in := s.inBuf[:len(el.In)]
	for i, n := range el.In {
		in[i] = s.val[n]
	}
	if cap(s.outBuf) < len(el.Out) {
		s.outBuf = make([]logic.Value, len(el.Out))
	}
	out := s.outBuf[:len(el.Out)]
	el.Eval(in, s.state[id], out)
	if s.cfg.CostSpin > 0 {
		circuit.Spin(el.Cost * s.cfg.CostSpin)
	}
	for p, n := range el.Out {
		if out[p].Equal(s.projected[n]) {
			continue
		}
		s.projected[n] = out[p]
		s.q.Schedule(t+el.Delay, eventq.Update{Node: n, Value: out[p]})
		if s.co != nil {
			s.co.onSchedule(n, t+el.Delay, task)
		}
	}
}

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
	"parsim/internal/trace"
)

// Options configures a run.
type Options struct {
	Horizon circuit.Time // simulate t in [0, Horizon)
	Probe   trace.Probe  // optional observer of node changes
	// CostSpin > 0 makes each evaluation burn CostSpin times the element's
	// Cost in synthetic work, restoring the paper's 1-100x spread between
	// gate and functional model evaluation times.
	CostSpin int64
	// CollectAvail records the events-available-per-step histogram (used by
	// experiment T3); it costs a map update per step.
	CollectAvail bool
	// Collect records per-step activity and the evaluation-causality DAG
	// used by the machine package's virtual-multiprocessor models.
	Collect bool
	// Guard is the optional run supervisor (progress publication and
	// chaos injection); panic containment for this single-goroutine
	// simulator lives in the engine layer.
	Guard *guard.Supervisor
	// Checkpoint asks for periodic snapshots between time steps — every
	// point of this single-goroutine simulator's step loop is quiescent.
	Checkpoint checkpoint.Plan
	// Resume continues from a verified snapshot instead of starting at
	// t=0. The resumed run replays bit-identically to an uninterrupted
	// one.
	Resume *checkpoint.Snapshot
}

// Result is the outcome of a run.
type Result struct {
	Run   stats.Run
	Final []logic.Value // node values at the horizon, indexed by NodeID
	// Steps and Graph are populated when Options.Collect is set.
	Steps []StepRecord
	Graph *TaskGraph
}

// Run simulates the circuit and returns statistics and final node values.
func Run(c *circuit.Circuit, opts Options) *Result {
	res, _ := RunContext(context.Background(), c, opts)
	return res
}

// RunContext is Run with cancellation: when ctx is cancelled the simulator
// stops at the next time step and returns the partial result together with
// ctx.Err().
func RunContext(ctx context.Context, c *circuit.Circuit, opts Options) (*Result, error) {
	s := newSim(c, opts)
	if opts.Resume != nil {
		if err := s.restore(opts.Resume); err != nil {
			return nil, err
		}
	}
	cancel := engine.WatchCancel(ctx)
	defer cancel.Release()
	start := time.Now()
	runErr := s.run(cancel)
	wall := time.Since(start)
	s.wc.ModelCalls = s.wc.Evals
	s.res.Aggregate(wall, []stats.WorkerCounters{s.wc})
	res := &Result{Run: s.res, Final: s.val}
	if s.co != nil {
		res.Steps = s.co.steps
		res.Graph = &s.co.graph
	}
	if runErr != nil {
		return res, runErr
	}
	return res, cancel.Err(ctx)
}

type sim struct {
	c    *circuit.Circuit
	opts Options
	res  stats.Run
	wc   stats.WorkerCounters

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

	start int64        // resume point (0 for a fresh run)
	lastT circuit.Time // last completed step, -1 before the first

	ckptW *checkpoint.Writer // background snapshot writer; nil when disabled

	co *collector // non-nil when Options.Collect
}

func newSim(c *circuit.Circuit, opts Options) *sim {
	s := &sim{
		c:    c,
		opts: opts,
		q:    eventq.New(),
		res: stats.Run{
			Algorithm: "event-driven",
			Circuit:   c.Name,
			Horizon:   opts.Horizon,
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
	s.chaos = opts.Guard.Chaos()
	if opts.Collect {
		s.co = newCollector(c)
	}
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

func (s *sim) run(cancel *engine.CancelFlag) (err error) {
	plan := s.opts.Checkpoint
	if plan.Enabled() {
		s.ckptW = checkpoint.NewWriter(plan)
		// Close flushes the newest pending snapshot, so a drain's final
		// capture is durable before the engine returns. A run that reached
		// its horizon has nothing left to resume — drop the pending
		// capture instead of paying a useless final fsync.
		defer func() {
			if err == nil && !cancel.Cancelled() {
				s.ckptW.DiscardPending()
			}
			if cerr := s.ckptW.Close(); err == nil {
				err = cerr
			}
		}()
	}
	lastSaved := s.start
	for {
		if cancel.Cancelled() {
			// The step loop is quiescent here, so a drain can capture the
			// partial run for later resumption.
			if plan.Enabled() {
				return s.saveCheckpoint(int64(s.lastT) + 1)
			}
			return nil
		}
		// Earliest pending activity: scheduled events or generator changes.
		t := s.nextGenTime()
		if qt, ok := s.q.Peek(); ok && (t < 0 || qt < t) {
			t = qt
		}
		if t < 0 || t >= s.opts.Horizon {
			return nil
		}
		s.opts.Guard.Progress(int64(t))
		s.step(t)
		s.lastT = t
		// Event-driven time skips idle steps, so the checkpoint interval is
		// a sliding threshold over simulated time rather than a modulus.
		// Ready gates the capture: packing a snapshot the throttled writer
		// would only coalesce away is wasted work on the critical path.
		if plan.Enabled() && int64(t)+1-lastSaved >= plan.Every && s.ckptW.Ready() {
			if err := s.saveCheckpoint(int64(t) + 1); err != nil {
				return err
			}
			lastSaved = int64(t) + 1
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
		if next, ok := el.GenNextChange(t); ok && next < s.opts.Horizon {
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

	if s.opts.CollectAvail {
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

// saveCheckpoint captures all activity strictly before step and hands the
// snapshot to the background writer; the durable save (and the plan's
// OnSave notification) completes off the simulation's critical path.
func (s *sim) saveCheckpoint(step int64) error {
	return s.ckptW.Save(s.snapshot(step))
}

// snapshot captures the complete simulator state between steps: node and
// projected values, per-element state, the pending event queue in pop
// order, generator cursors, counters and (when the probe is a recorder)
// the change history needed for bit-identical VCD output after resume.
func (s *sim) snapshot(step int64) *checkpoint.Snapshot {
	plan := s.opts.Checkpoint
	snap := &checkpoint.Snapshot{
		Engine:    plan.Engine,
		Digest:    plan.Digest,
		Step:      step,
		TimeSteps: s.res.TimeSteps,
		Workers:   []stats.WorkerCounters{s.wc},
		Values:    checkpoint.PackValues(s.val),
		Projected: checkpoint.PackValues(s.projected),
		GenNext:   make([]int64, len(s.genNext)),
	}
	for i, t := range s.genNext {
		snap.GenNext[i] = int64(t)
	}
	snap.ElemState = make([][]checkpoint.RawValue, len(s.state))
	for i, st := range s.state {
		if len(st) > 0 {
			snap.ElemState[i] = checkpoint.PackValues(st)
		}
	}
	cur, entries := s.q.Dump()
	snap.QueueCur = int64(cur)
	snap.Events = make([]checkpoint.Event, len(entries))
	for i, e := range entries {
		snap.Events[i] = checkpoint.Event{
			T:     int64(e.T),
			Node:  int32(e.Node),
			Value: checkpoint.PackValue(e.Value),
		}
	}
	if rec, ok := s.opts.Probe.(*trace.Recorder); ok {
		snap.HasTrace = true
		for _, ch := range rec.DumpChanges() {
			snap.Trace = append(snap.Trace, checkpoint.TraceChange{
				Node:  int32(ch.Node),
				T:     int64(ch.Time),
				Value: checkpoint.PackValue(ch.Value),
			})
		}
	}
	return snap
}

// restore rebuilds the simulator from a digest-verified snapshot. Every
// structural property is still validated — lengths, node widths, event
// times — so even a hand-crafted snapshot that passed the checksum cannot
// corrupt the run; failures are errors, never panics.
func (s *sim) restore(snap *checkpoint.Snapshot) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("parsim: resume (sequential): %s", fmt.Sprintf(format, args...))
	}
	if len(snap.Values) != len(s.c.Nodes) || len(snap.Projected) != len(s.c.Nodes) {
		return bad("snapshot has %d node values for a %d-node circuit", len(snap.Values), len(s.c.Nodes))
	}
	vals, err := checkpoint.UnpackValues(snap.Values)
	if err != nil {
		return bad("node values: %v", err)
	}
	proj, err := checkpoint.UnpackValues(snap.Projected)
	if err != nil {
		return bad("projected values: %v", err)
	}
	for i := range s.c.Nodes {
		if vals[i].Width() != s.c.Nodes[i].Width || proj[i].Width() != s.c.Nodes[i].Width {
			return bad("node %d width mismatch", i)
		}
	}
	if len(snap.ElemState) != len(s.c.Elems) {
		return bad("snapshot has %d element states for %d elements", len(snap.ElemState), len(s.c.Elems))
	}
	newState := make([][]logic.Value, len(s.state))
	for i := range s.state {
		if len(snap.ElemState[i]) != len(s.state[i]) {
			return bad("element %d has %d state values, want %d", i, len(snap.ElemState[i]), len(s.state[i]))
		}
		if len(s.state[i]) == 0 {
			continue
		}
		st, err := checkpoint.UnpackValues(snap.ElemState[i])
		if err != nil {
			return bad("element %d state: %v", i, err)
		}
		newState[i] = st
	}
	if len(snap.GenNext) != len(s.genNext) {
		return bad("snapshot has %d generator cursors, want %d", len(snap.GenNext), len(s.genNext))
	}
	entries := make([]eventq.Entry, len(snap.Events))
	prev := snap.QueueCur
	for i, e := range snap.Events {
		if e.Node < 0 || int(e.Node) >= len(s.c.Nodes) {
			return bad("event %d: node %d out of range", i, e.Node)
		}
		if e.T < prev {
			return bad("event %d: time %d out of order (cursor %d)", i, e.T, prev)
		}
		prev = e.T
		v, err := e.Value.Unpack()
		if err != nil {
			return bad("event %d: %v", i, err)
		}
		if v.Width() != s.c.Nodes[e.Node].Width {
			return bad("event %d: width mismatch on node %d", i, e.Node)
		}
		entries[i] = eventq.Entry{T: circuit.Time(e.T), Node: circuit.NodeID(e.Node), Value: v}
	}
	if len(snap.Workers) != 1 {
		return bad("snapshot has %d worker counter rows, want 1", len(snap.Workers))
	}
	// All validated; commit.
	copy(s.val, vals)
	copy(s.projected, proj)
	for i := range newState {
		if newState[i] != nil {
			s.state[i] = newState[i]
		}
	}
	for i, t := range snap.GenNext {
		s.genNext[i] = circuit.Time(t)
	}
	s.q.Restore(circuit.Time(snap.QueueCur), entries)
	s.wc = snap.Workers[0]
	s.res.TimeSteps = snap.TimeSteps
	s.start = snap.Step
	s.lastT = circuit.Time(snap.Step) - 1
	if rec, ok := s.opts.Probe.(*trace.Recorder); ok && snap.HasTrace {
		chs := make([]trace.ChangeRecord, len(snap.Trace))
		for i, tc := range snap.Trace {
			v, err := tc.Value.Unpack()
			if err != nil {
				return bad("trace change %d: %v", i, err)
			}
			chs[i] = trace.ChangeRecord{Node: circuit.NodeID(tc.Node), Time: circuit.Time(tc.T), Value: v}
		}
		rec.Preload(chs)
	}
	return nil
}

func (s *sim) applyUpdate(n circuit.NodeID, t circuit.Time, v logic.Value) {
	if v.Equal(s.val[n]) {
		return
	}
	s.val[n] = v
	s.wc.NodeUpdates++
	if s.opts.Probe != nil {
		s.opts.Probe.OnChange(n, t, v)
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
	if s.opts.CostSpin > 0 {
		circuit.Spin(el.Cost * s.opts.CostSpin)
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

package engine

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"parsim/internal/barrier"
	"parsim/internal/checkpoint"
	"parsim/internal/circuit"
	"parsim/internal/guard"
	"parsim/internal/stats"
)

// Gang runs body(w) for every worker w of the run on a goroutine of its
// own, under the supervisor's panic containment labelled where (a
// WorkerFault names it), and returns the wall time from launch until the
// last worker has exited. It is the one place engine workers start.
func Gang(cfg Config, where string, body func(w int)) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cfg.Guard.Recover(w, where)
			body(w)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// Lockstep is the run protocol of the unit-delay gang engines (compiled and
// the plane core), one instance per pass: every worker runs every step t in
// [start, Horizon-1) — step t computes the values of t+1 into the double
// buffer's other side — and one barrier closes each step. The engine
// supplies the step body and its own checkpoint sections; Lockstep owns
// the rest:
//
//   - the stop protocol. Worker 0 publishes progress and, once the run is
//     cancelled during step t, the stop step t+1; the step barrier makes
//     that write visible to every worker before any of them reaches step
//     t+1, so the whole gang leaves the loop at the same step boundary and
//     nobody is left waiting on the barrier. A guard trip aborts the
//     barrier instead.
//   - the captures: Ckpt.Cross at the top of a due step, Ckpt.Drain at a
//     clean stop, and the restore commit of the worker rows and start step.
//   - the counter rows. A worker counts into a private copy of its row —
//     adjacent rows share cache lines — published before a capture barrier
//     and at exit; the barrier waits and their idle time are counted here.
type Lockstep struct {
	horizon circuit.Time
	guard   *guard.Supervisor
	ckpt    *checkpoint.Session
	bar     *barrier.Barrier
	rows    []stats.WorkerCounters
	fill    func(*checkpoint.Snapshot)
	start   circuit.Time // first step; a resumed pass starts at the snapshot's
	stopAt  atomic.Int64 // > 0: the step at which every worker exits
}

// NewLockstep builds the protocol for one pass of cfg.Workers workers that
// count into rows (one per worker) and write their snapshot sections with
// fill. A trip of cfg.Guard aborts the step barrier.
func NewLockstep(cfg Config, rows []stats.WorkerCounters, fill func(*checkpoint.Snapshot)) *Lockstep {
	l := &Lockstep{
		horizon: cfg.Horizon,
		guard:   cfg.Guard,
		ckpt:    cfg.Ckpt,
		bar:     barrier.New(cfg.Workers),
		rows:    rows,
		fill:    fill,
	}
	cfg.Guard.OnTrip(l.bar.Abort)
	return l
}

// Begin starts the pass's checkpoint session. On resume, restore checks and
// commits the engine's own sections, and Begin then commits the worker rows
// and the start step; resumed reports that the engine must skip its t=0
// initialisation.
func (l *Lockstep) Begin(restore func(*checkpoint.Snapshot) error) (resumed bool, err error) {
	return l.ckpt.Begin(len(l.rows), func(snap *checkpoint.Snapshot) error {
		if err := restore(snap); err != nil {
			return err
		}
		copy(l.rows, snap.Workers)
		l.start = circuit.Time(snap.Step)
		return nil
	})
}

// Steps is worker id's step loop: step(t, row) runs the engine's body for
// step t, counting into row, the worker's private copy of its counter row.
func (l *Lockstep) Steps(id int, step func(t circuit.Time, row *stats.WorkerCounters)) {
	var sense barrier.Sense
	var idle time.Duration
	row := l.rows[id]
	defer func() {
		row.Idle += idle
		l.rows[id] = row
	}()
	for t := l.start; t < l.horizon-1; t++ {
		if sa := l.stopAt.Load(); sa > 0 && t >= circuit.Time(sa) {
			return
		}
		if l.ckpt.Due(int64(t)) && !l.ckpt.Cross(id, int64(t), l.bar, &sense, l.rows, l.fill) {
			return
		}
		if id == 0 {
			l.guard.Progress(int64(t))
			if l.guard.Cancelled() {
				l.stopAt.CompareAndSwap(0, int64(t)+1)
			}
		}
		step(t, &row)
		row.BarrierWaits++
		if l.ckpt.Due(int64(t) + 1) {
			l.rows[id] = row // worker 0 captures the rows after this barrier
		}
		t0 := time.Now()
		ok := l.bar.Wait(&sense)
		idle += time.Since(t0)
		if !ok {
			return
		}
	}
}

// Finish ends the pass once the gang has exited: it drains the checkpoint
// session and returns the time steps the pass covered and the buffer side
// (0 or 1) holding the values of its last step.
func (l *Lockstep) Finish() (steps int64, side int, err error) {
	steps, side = int64(l.horizon), int(l.horizon-1)&1
	if l.horizon <= 0 {
		side = 0
	}
	sa := l.stopAt.Load()
	if sa > 0 && circuit.Time(sa) < l.horizon-1 {
		// Stopped: the last completed step wrote the values for time sa.
		steps, side = sa+1, int(sa)&1
	}
	return steps, side, l.ckpt.Drain(sa, l.guard.CutShort(), l.rows, l.fill)
}

// StallReport is the completion check of the asynchronous engines, which
// run until no activation is pending anywhere: when that happened on its
// own (ctx not done), every node's behaviour must be known up to the
// horizon. validTo reports node n's valid-time, or ok false for a node the
// engine keeps no history of. Nodes short of the horizon are the
// conservative silent stall-at-X the static analyzer predicts for
// zero-delay cycles; the report names the first eight instead of returning
// their stale values. It returns nil when there is none.
func StallReport(ctx context.Context, name string, c *circuit.Circuit, horizon circuit.Time,
	validTo func(n circuit.NodeID) (t int64, ok bool)) error {
	if ctx.Err() != nil || horizon <= 0 {
		return nil
	}
	st := &guard.StallError{Engine: name, LastProgress: int64(horizon)}
	for i := range c.Nodes {
		vt, ok := validTo(circuit.NodeID(i))
		if !ok || vt >= int64(horizon) {
			continue
		}
		st.LastProgress = min(st.LastProgress, vt)
		if len(st.StuckNodes) < 8 {
			st.StuckNodes = append(st.StuckNodes, c.Nodes[i].Name)
		} else {
			st.Truncated++
		}
	}
	if len(st.StuckNodes) == 0 {
		return nil
	}
	return st
}

package vector

import (
	"math/bits"

	"parsim/internal/analyze"
	"parsim/internal/checkpoint"
	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/logic"
	"parsim/internal/stats"
)

// Concurrent stuck-at fault simulation, the classic concurrent/parallel
// fault simulation scheme restated over wide planes: lane 0 simulates the
// good machine, every other lane carries the same stimulus plus exactly one
// injected stuck-at fault. A fault is detected when its lane's value at an
// observation node differs from lane 0 with both lanes known — one plane
// XOR compares 64 fault machines against the reference at once. Fault
// lists larger than Lanes-1 chunk into multiple passes.

// observationNodes returns the fault observation points detection compares
// against the good machine: the circuit's sink nodes (driven or undriven
// nodes nothing reads — the "primary outputs"), or every node when the
// circuit has none.
func observationNodes(c *circuit.Circuit) []circuit.NodeID {
	var sinks []circuit.NodeID
	for n := range c.Nodes {
		if len(c.Nodes[n].Fanout) == 0 {
			sinks = append(sinks, circuit.NodeID(n))
		}
	}
	if len(sinks) > 0 {
		return sinks
	}
	all := make([]circuit.NodeID, len(c.Nodes))
	for n := range all {
		all[n] = circuit.NodeID(n)
	}
	return all
}

// runFaults chunks the stuck-at list faults (the run path passes the
// circuit's collapsed list) into passes of Lanes-1 faults and runs each
// pass with lane 0 as the good machine. Faults beyond Config.FaultMaxPasses
// passes are reported undetected.
func (e eng) runFaults(c *circuit.Circuit, cfg engine.Config, faults []analyze.Fault) (*engine.Report, error) {
	// Every lane carries the same stimulus, so divergence from lane 0 is a
	// fault effect and nothing else; the probe observes the good machine.
	cfg.LaneStride = 0
	cfg.ProbeLane = 0
	observe := observationNodes(c)

	perPass := cfg.Lanes - 1
	passes := (len(faults) + perPass - 1) / perPass
	if cfg.FaultMaxPasses > 0 && passes > cfg.FaultMaxPasses {
		passes = cfg.FaultMaxPasses
	}

	statuses := make([]stats.FaultStatus, len(faults))
	for i := range statuses {
		statuses[i] = stats.FaultStatus{Site: faults[i].Site(c), Step: -1}
	}

	// Resuming a fault simulation restarts at the snapshotted pass with the
	// completed passes' statuses and counters already in hand; the in-flight
	// pass's plane and detection state is restored inside runPass.
	startPass, ran := 0, 0
	var resumeAcc *checkpoint.RunCounters
	if ck := cfg.Ckpt(); ck.Resume() != nil {
		fs := ck.Resume().Fault
		if fs == nil {
			return nil, ck.Corrupt("fault state", "snapshot carries no fault-simulation state")
		}
		if len(fs.Statuses) != len(statuses) {
			return nil, ck.Corrupt("fault state", "snapshot has %d fault statuses, want %d", len(fs.Statuses), len(statuses))
		}
		if fs.Pass < 0 || fs.Pass >= passes {
			return nil, ck.Corrupt("fault state", "snapshot pass %d outside [0,%d)", fs.Pass, passes)
		}
		copy(statuses, fs.Statuses)
		startPass, ran = fs.Pass, fs.Ran
		acc := fs.Acc
		resumeAcc = &acc
	}

	var total *engine.Report
	var runErr error
	for p := startPass; p < passes; p++ {
		lo := p * perPass
		hi := lo + perPass
		if hi > len(faults) {
			hi = len(faults)
		}
		fp := newFaultPass(c, faults[lo:hi], observe)
		fp.pass, fp.ran, fp.statuses = p, ran, statuses
		if total != nil {
			fp.acc = packRun(&total.Stats)
		} else if resumeAcc != nil {
			fp.acc = *resumeAcc
		}
		res, err := e.runPass(c, cfg, fp)
		if res != nil {
			fp.record(statuses[lo:hi])
			ran++
			if total == nil {
				total = res
				if resumeAcc != nil {
					// Fold the completed passes' counters back in so the
					// stitched totals match an uninterrupted run's.
					addRunCounters(&total.Stats, *resumeAcc)
					resumeAcc = nil
				}
			} else {
				total.Final = res.Final
				addRunCounters(&total.Stats, packRun(&res.Stats))
			}
		}
		if err != nil || cfg.Guard().Cancelled() {
			runErr = err
			break
		}
	}
	if total == nil {
		return nil, runErr
	}

	detected := 0
	for i := range statuses {
		if statuses[i].Detected {
			detected++
		}
	}
	cov := &stats.FaultCoverage{
		Total:     len(faults),
		Detected:  detected,
		Collapsed: analyze.TotalFaultSites(c) - len(faults),
		Passes:    ran,
		Lanes:     cfg.Lanes,
	}
	if cfg.FaultStatuses {
		cov.Faults = statuses
	}
	total.FaultCoverage = cov
	total.Stats.Algorithm += "+faults"
	return total, runErr
}

// packRun extracts the accumulating counters of a run into the snapshot
// wire form; addRunCounters folds such counters into a running total — a
// finished pass's, or on resume the completed passes' a snapshot carried.
func packRun(r *stats.Run) checkpoint.RunCounters {
	return checkpoint.RunCounters{
		TimeSteps:   r.TimeSteps,
		NodeUpdates: r.NodeUpdates,
		Evals:       r.Evals,
		ModelCalls:  r.ModelCalls,
		EventsUsed:  r.EventsUsed,
		Wall:        r.Wall,
		PerWorker:   append([]stats.WorkerCounters(nil), r.PerWorker...),
	}
}

func addRunCounters(dst *stats.Run, acc checkpoint.RunCounters) {
	dst.TimeSteps += acc.TimeSteps
	dst.NodeUpdates += acc.NodeUpdates
	dst.Evals += acc.Evals
	dst.ModelCalls += acc.ModelCalls
	dst.EventsUsed += acc.EventsUsed
	dst.Wall += acc.Wall
	for i := range dst.PerWorker {
		if i < len(acc.PerWorker) {
			dst.PerWorker[i].Accumulate(acc.PerWorker[i])
		}
	}
}

// faultInj is one fault's injection site in plane coordinates: set or
// clear one lane bit of one plane word, forcing the lane known.
type faultInj struct {
	plane     int
	wd        int
	mask      uint64
	stuckHigh bool
}

func (in faultInj) apply(dst []logic.WidePlane) {
	p := dst[in.plane]
	if in.stuckHigh {
		p.V[in.wd] |= in.mask
	} else {
		p.V[in.wd] &^= in.mask
	}
	p.U[in.wd] &^= in.mask
}

// faultPass carries one pass's injection and detection state. Injection
// ownership follows element ownership — the worker that evaluates the
// faulted node's driver re-asserts the fault after writing it, so no two
// workers touch the same plane word; undriven nodes belong to worker 0.
// Observation nodes are split round-robin; each worker records detections
// in its own masks, merged when the pass finishes.
type faultPass struct {
	c        *circuit.Circuit
	faults   []analyze.Fault
	obsNodes []circuit.NodeID

	words    int
	all      []faultInj   // every injection, for init-time application
	byWorker [][]faultInj // injections owned per worker
	obs      [][]span     // observation spans per worker
	det      [][]uint64   // per-worker detected lane masks [worker][word]
	first    [][]int64    // per-worker first-detection step per fault, -1 = none
	// always marks the blocks holding an element-driven injection site,
	// which run every step: their drivers' raw outputs are counted before
	// the faults are re-asserted, on every step, as in an every-element run.
	always []uint64

	// Snapshot context, set by runFaultSim before the pass starts: the
	// pass index, how many passes completed before it, the full status
	// table (rows for completed passes filled in) and the counters merged
	// from completed passes. Mid-pass checkpoints carry these along so a
	// restart re-enters the chunk loop where it left off.
	pass     int
	ran      int
	statuses []stats.FaultStatus
	acc      checkpoint.RunCounters
}

func newFaultPass(c *circuit.Circuit, faults []analyze.Fault, observe []circuit.NodeID) *faultPass {
	return &faultPass{c: c, faults: faults, obsNodes: observe}
}

// bind resolves the pass state against the compiled program: injection
// sites in its plane numbering, injection ownership from its owner table
// (so a worker re-asserts faults only inside its own slab stripe), the
// blocks that run every step and per-worker detection buffers.
func (fp *faultPass) bind(prog *program, words int) {
	fp.words = words
	p := len(prog.work)
	fp.all = fp.all[:0]
	fp.byWorker = make([][]faultInj, p)
	fp.always = make([]uint64, prog.markWords)
	for i, f := range fp.faults {
		lane := i + 1
		inj := faultInj{
			plane:     int(prog.off[f.Node]) + f.Bit,
			wd:        lane >> 6,
			mask:      1 << uint(lane&63),
			stuckHigh: f.StuckHigh,
		}
		fp.all = append(fp.all, inj)
		w := 0
		if d := fp.c.Nodes[f.Node].Driver; d != circuit.NoElem {
			w = int(prog.owner[d])
			if g := prog.elemBlock[d]; g >= 0 {
				fp.always[g>>6] |= 1 << uint(g&63)
			}
		}
		fp.byWorker[w] = append(fp.byWorker[w], inj)
	}
	fp.obs = make([][]span, p)
	for i, n := range fp.obsNodes {
		fp.obs[i%p] = append(fp.obs[i%p], prog.span(fp.c, n))
	}
	fp.det = make([][]uint64, p)
	fp.first = make([][]int64, p)
	for w := 0; w < p; w++ {
		fp.det[w] = make([]uint64, words)
		fp.first[w] = make([]int64, len(fp.faults))
		for i := range fp.first[w] {
			fp.first[w][i] = -1
		}
	}
}

// inject applies every fault to one buffer side (init time, before the
// workers start).
func (fp *faultPass) inject(dst []logic.WidePlane) {
	for _, in := range fp.all {
		in.apply(dst)
	}
}

// injectWorker re-asserts worker id's faults on the freshly written side.
func (fp *faultPass) injectWorker(id int, dst []logic.WidePlane) {
	for _, in := range fp.byWorker[id] {
		in.apply(dst)
	}
}

// observe scans worker id's observation nodes at step t: a fault lane is
// detected when its value is known and differs from a known good-machine
// (lane 0) value on any observed bit. Lanes already in the worker's
// detected mask are dropped from further comparison.
func (fp *faultPass) observe(id int, t circuit.Time, cur []logic.WidePlane) {
	det := fp.det[id]
	first := fp.first[id]
	nf := len(fp.faults)
	for _, sp := range fp.obs[id] {
		o, w := int(sp.off), int(sp.w)
		for b := 0; b < w; b++ {
			wp := cur[o+b]
			if wp.U[0]&1 != 0 {
				continue // good machine unknown on this bit: no verdict
			}
			var gv uint64
			if wp.V[0]&1 != 0 {
				gv = ^uint64(0)
			}
			for wd := 0; wd < fp.words; wd++ {
				diffs := (wp.V[wd] ^ gv) &^ wp.U[wd] &^ det[wd]
				if wd == 0 {
					diffs &^= 1 // lane 0 is the reference itself
				}
				if diffs == 0 {
					continue
				}
				det[wd] |= diffs
				for diffs != 0 {
					bit := bits.TrailingZeros64(diffs)
					diffs &^= 1 << uint(bit)
					idx := wd*64 + bit - 1
					if idx < nf && first[idx] < 0 {
						first[idx] = int64(t)
					}
				}
			}
		}
	}
}

// record merges the per-worker detections into the pass's status rows:
// detected if any worker saw the lane diverge, at the earliest such step.
func (fp *faultPass) record(st []stats.FaultStatus) {
	for i := range st {
		best := int64(-1)
		for w := range fp.first {
			if s := fp.first[w][i]; s >= 0 && (best < 0 || s < best) {
				best = s
			}
		}
		if best >= 0 {
			st[i].Detected = true
			st[i].Step = best
		}
	}
}

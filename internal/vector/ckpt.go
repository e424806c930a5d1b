package vector

import (
	"parsim/internal/checkpoint"
	"parsim/internal/logic"
	"parsim/internal/stats"
)

// The plane core's own snapshot sections; checkpoint.Session runs the
// protocol around them. A snapshot captures one buffer side's node planes
// (all lanes), every stateful kernel's private planes and per-lane scalar
// state (the fused gate batches are stateless by construction), the
// selective trace's pending marks and — in fault-simulation mode — the
// cross-pass detection state, all at the per-step barrier where the gang
// is quiescent. Kernel states walk in program.kernels order — the compiled
// program is deterministic, so the restore side walks the same sequence.
//
// The marks are saved as they stand, not recomputed from the two buffer
// sides: after a restore both sides hold the same planes, so a capture at
// the first resumed step would find no change and lose them.

func packPlane(p logic.WidePlane) checkpoint.PlaneState {
	return checkpoint.PlaneState{
		V: append([]uint64(nil), p.V...),
		U: append([]uint64(nil), p.U...),
	}
}

// fill writes the core's sections at the top of a step: node planes for
// that step, kernel and fault state through the step before.
func (s *sim) fill(snap *checkpoint.Snapshot) {
	side := s.buf[int(snap.Step)&1].planes
	snap.Planes = make([]checkpoint.PlaneState, len(side))
	for i, p := range side {
		snap.Planes[i] = packPlane(p)
	}
	for _, k := range s.prog.kernels() {
		var ks checkpoint.KernelState
		for _, st := range k.state {
			ks.Planes = append(ks.Planes, packPlane(st))
		}
		for _, lane := range k.laneState {
			ks.Lanes = append(ks.Lanes, checkpoint.PackValues(lane))
		}
		snap.Kernels = append(snap.Kernels, ks)
	}
	snap.Marks = make([]uint64, s.prog.markWords)
	for _, q := range s.marks[snap.Step&1] {
		for i, m := range q {
			snap.Marks[i] |= m
		}
	}
	if fp := s.fault; fp != nil {
		fs := &checkpoint.FaultState{
			Pass:     fp.pass,
			Ran:      fp.ran,
			Statuses: append([]stats.FaultStatus(nil), fp.statuses...),
			Acc:      fp.acc,
		}
		for _, d := range fp.det {
			fs.Det = append(fs.Det, append([]uint64(nil), d...))
		}
		for _, f := range fp.first {
			fs.First = append(fs.First, append([]int64(nil), f...))
		}
		snap.Fault = fs
	}
}

// restore rebuilds the core's own state from a digest-verified snapshot,
// validating every structural property so failures are typed errors, never
// panics (Lockstep commits the worker rows and the start step).
func (s *sim) restore(snap *checkpoint.Snapshot) error {
	ck := s.cfg.Ckpt()
	if len(snap.Planes) != s.prog.total {
		return ck.Corrupt("node planes", "snapshot has %d node planes for a %d-plane circuit", len(snap.Planes), s.prog.total)
	}
	for i, p := range snap.Planes {
		if len(p.V) != s.words || len(p.U) != s.words {
			return ck.Corrupt("node planes", "plane %d has %d/%d words, want %d", i, len(p.V), len(p.U), s.words)
		}
	}
	kerns := s.prog.kernels()
	if len(snap.Kernels) != len(kerns) {
		return ck.Corrupt("kernel state", "snapshot has %d kernel states for %d kernels", len(snap.Kernels), len(kerns))
	}
	// Validate every kernel state before committing anything.
	laneVals := make([][][]logic.Value, len(kerns))
	for idx, k := range kerns {
		ks := &snap.Kernels[idx]
		if len(ks.Planes) != len(k.state) {
			return ck.Corrupt("kernel state", "kernel %d has %d state planes, want %d", idx, len(ks.Planes), len(k.state))
		}
		for j, p := range ks.Planes {
			if len(p.V) != s.words || len(p.U) != s.words {
				return ck.Corrupt("kernel state", "kernel %d state plane %d has %d/%d words, want %d", idx, j, len(p.V), len(p.U), s.words)
			}
		}
		if len(ks.Lanes) != len(k.laneState) {
			return ck.Corrupt("kernel state", "kernel %d has %d lane states, want %d", idx, len(ks.Lanes), len(k.laneState))
		}
		if len(ks.Lanes) > 0 {
			laneVals[idx] = make([][]logic.Value, len(ks.Lanes))
			for l := range ks.Lanes {
				if len(ks.Lanes[l]) != len(k.laneState[l]) {
					return ck.Corrupt("kernel state", "kernel %d lane %d has %d state values, want %d", idx, l, len(ks.Lanes[l]), len(k.laneState[l]))
				}
				vals, err := checkpoint.UnpackValues(ks.Lanes[l])
				if err != nil {
					return ck.Corrupt("kernel state", "kernel %d lane %d: %v", idx, l, err)
				}
				for j := range vals {
					if vals[j].Width() != k.laneState[l][j].Width() {
						return ck.Corrupt("kernel state", "kernel %d lane %d state %d width mismatch", idx, l, j)
					}
				}
				laneVals[idx][l] = vals
			}
		}
	}
	for w := range snap.Workers {
		// One barrier per step is an invariant of every snapshot this
		// schedule writes; the snapshot is outside input, so a row that
		// breaks it must not be committed.
		if bw := snap.Workers[w].BarrierWaits; bw != snap.Step {
			return ck.Corrupt("worker rows", "worker %d crossed %d barriers in %d steps, want one per step", w, bw, snap.Step)
		}
	}
	if err := s.checkMarks(snap.Marks); err != nil {
		return err
	}
	if (snap.Fault != nil) != (s.fault != nil) {
		return ck.Corrupt("fault state", "fault-simulation state presence mismatch")
	}
	if fp := s.fault; fp != nil {
		fs := snap.Fault
		if len(fs.Det) != s.p || len(fs.First) != s.p {
			return ck.Corrupt("fault state", "fault state has %d/%d worker rows, want %d", len(fs.Det), len(fs.First), s.p)
		}
		for w := 0; w < s.p; w++ {
			if len(fs.Det[w]) != s.words {
				return ck.Corrupt("fault state", "fault detection mask %d has %d words, want %d", w, len(fs.Det[w]), s.words)
			}
			if len(fs.First[w]) != len(fp.faults) {
				return ck.Corrupt("fault state", "fault first-step row %d has %d entries, want %d", w, len(fs.First[w]), len(fp.faults))
			}
		}
	}
	// All validated; commit. Both buffer sides take the snapshot planes:
	// an element-driven node is rewritten whenever its block runs, copied
	// over when it changed the step before (after a restore it did not:
	// both sides agree), every undriven node stays constant, and a
	// generator, rewritten only at its change times, re-evaluates on the
	// first resumed step (its kernel starts fresh) — so the resumed
	// double-buffer sequence matches the uninterrupted one exactly. The
	// pending marks go to one producer's bitmap for the resumed step; a
	// snapshot without them runs every block at that step.
	for side := range s.buf {
		for i := range s.buf[side].planes {
			copy(s.buf[side].planes[i].V, snap.Planes[i].V)
			copy(s.buf[side].planes[i].U, snap.Planes[i].U)
		}
	}
	for idx, k := range kerns {
		for j := range k.state {
			copy(k.state[j].V, snap.Kernels[idx].Planes[j].V)
			copy(k.state[j].U, snap.Kernels[idx].Planes[j].U)
		}
		for l := range k.laneState {
			copy(k.laneState[l], laneVals[idx][l])
		}
	}
	if snap.Marks != nil {
		copy(s.marks[snap.Step&1][0], snap.Marks)
		s.full = s.every
	}
	if fp := s.fault; fp != nil {
		for w := 0; w < s.p; w++ {
			copy(fp.det[w], snap.Fault.Det[w])
			copy(fp.first[w], snap.Fault.First[w])
		}
	}
	return nil
}

// checkMarks validates a snapshot's pending marks: none at all (a snapshot
// written before marks were kept), or one bit per global block number with
// no bit set past a worker's last block.
func (s *sim) checkMarks(marks []uint64) error {
	if marks == nil {
		return nil
	}
	ck, p := s.cfg.Ckpt(), s.prog
	if len(marks) != p.markWords {
		return ck.Corrupt("pending marks", "snapshot has %d mark words for %d", len(marks), p.markWords)
	}
	for w, bs := range p.blocks {
		for i := len(bs); i < int(p.base[w+1]-p.base[w]); i++ {
			if g := int(p.base[w]) + i; marks[g>>6]>>uint(g&63)&1 != 0 {
				return ck.Corrupt("pending marks", "block %d is marked but worker %d has %d blocks", g, w, len(bs))
			}
		}
	}
	return nil
}

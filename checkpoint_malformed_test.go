package parsim

import (
	"errors"
	"path/filepath"
	"slices"
	"testing"

	"parsim/internal/checkpoint"
)

// malformedCase is one single-field mutation of a real snapshot. field is
// the snapshot section the rejection must name.
type malformedCase struct {
	name   string
	field  string
	mutate func(t *testing.T, s *checkpoint.Snapshot)
}

// TestResumeRejectsMalformedSnapshots takes a real snapshot from each
// checkpointing engine, breaks one field at a time, re-saves the mutant (so
// the frame and its CRC are valid and only the restore checks stand between
// it and the run) and resumes from it. Every mutant must be refused with a
// typed error naming the engine and the field — never resumed, never a
// contained panic.
func TestResumeRejectsMalformedSnapshots(t *testing.T) {
	nodeValues := []malformedCase{
		{"node value dropped", "node values", func(t *testing.T, s *checkpoint.Snapshot) {
			s.Values = s.Values[:len(s.Values)-1]
		}},
		{"node width changed", "node values", func(t *testing.T, s *checkpoint.Snapshot) {
			s.Values[len(s.Values)-1].W++
		}},
		{"element-state count off", "element state", func(t *testing.T, s *checkpoint.Snapshot) {
			s.ElemState = s.ElemState[:len(s.ElemState)-1]
		}},
		{"element-state shape off", "element state", func(t *testing.T, s *checkpoint.Snapshot) {
			for i := range s.ElemState {
				if len(s.ElemState[i]) > 0 {
					s.ElemState[i] = append(s.ElemState[i], s.ElemState[i][0])
					return
				}
			}
			t.Fatal("snapshot has no stateful element")
		}},
	}
	common := []malformedCase{
		{"worker row added", "worker rows", func(t *testing.T, s *checkpoint.Snapshot) {
			s.Workers = append(s.Workers, s.Workers[0])
		}},
		{"trace value non-canonical", "probe trace", func(t *testing.T, s *checkpoint.Snapshot) {
			if len(s.Trace) == 0 {
				t.Fatal("snapshot has no probe trace")
			}
			s.Trace[0].Value = checkpoint.RawValue{B: 0xff, W: 1}
		}},
		{"trace node out of range", "probe trace", func(t *testing.T, s *checkpoint.Snapshot) {
			if len(s.Trace) == 0 {
				t.Fatal("snapshot has no probe trace")
			}
			s.Trace[0].Node = -1
		}},
		{"step at horizon", "step cursor", func(t *testing.T, s *checkpoint.Snapshot) {
			s.Step = malformedHorizon
		}},
	}
	seqOnly := []malformedCase{
		{"projected width changed", "projected values", func(t *testing.T, s *checkpoint.Snapshot) {
			s.Projected[0].W++
		}},
		{"generator cursor dropped", "generator cursors", func(t *testing.T, s *checkpoint.Snapshot) {
			s.GenNext = s.GenNext[:len(s.GenNext)-1]
		}},
		{"event out of order", "events", func(t *testing.T, s *checkpoint.Snapshot) {
			if len(s.Events) == 0 {
				t.Fatal("snapshot has no pending event")
			}
			s.Events[0].T = s.QueueCur - 1
		}},
		{"event node out of range", "events", func(t *testing.T, s *checkpoint.Snapshot) {
			if len(s.Events) == 0 {
				t.Fatal("snapshot has no pending event")
			}
			s.Events[0].Node = int32(len(s.Values))
		}},
	}
	planeCore := []malformedCase{
		{"node plane dropped", "node planes", func(t *testing.T, s *checkpoint.Snapshot) {
			s.Planes = s.Planes[:len(s.Planes)-1]
		}},
		{"node plane words off", "node planes", func(t *testing.T, s *checkpoint.Snapshot) {
			s.Planes[0].V = append(s.Planes[0].V, 0)
		}},
		{"kernel dropped", "kernel state", func(t *testing.T, s *checkpoint.Snapshot) {
			if len(s.Kernels) == 0 {
				t.Fatal("snapshot has no kernel state")
			}
			s.Kernels = s.Kernels[:len(s.Kernels)-1]
		}},
		{"kernel state shape off", "kernel state", func(t *testing.T, s *checkpoint.Snapshot) {
			for i := range s.Kernels {
				if ps := s.Kernels[i].Planes; len(ps) > 0 {
					s.Kernels[i].Planes = append(ps, ps[0])
					return
				}
			}
			t.Fatal("snapshot has no kernel state plane")
		}},
		{"barrier waits off", "worker rows", func(t *testing.T, s *checkpoint.Snapshot) {
			s.Workers[len(s.Workers)-1].BarrierWaits = s.Step + 1
		}},
		{"pending marks word added", "pending marks", func(t *testing.T, s *checkpoint.Snapshot) {
			s.Marks = append(s.Marks, 0)
		}},
		{"pending mark past the last block", "pending marks", func(t *testing.T, s *checkpoint.Snapshot) {
			if len(s.Marks) == 0 {
				t.Fatal("snapshot has no pending marks")
			}
			s.Marks[len(s.Marks)-1] |= 1 << 63
		}},
	}
	engines := []struct {
		engine string
		c      *Circuit
		opts   Options
		cases  []malformedCase
	}{
		{"sequential", RandomCircuit(5, 60), Options{Engine: Sequential},
			slices.Concat(nodeValues, seqOnly, common)},
		{"compiled", RandomUnitCircuit(3, 60), Options{Engine: Compiled, Workers: 2},
			slices.Concat(planeCore, common)},
		{"jit", RandomUnitCircuit(7, 80), Options{Engine: JIT, Workers: 2},
			slices.Concat(planeCore, common)},
		{"vector", RandomUnitCircuit(11, 48), Options{Engine: Vector, Workers: 2, Lanes: 96},
			slices.Concat(planeCore, common)},
		{"vector", RandomUnitCircuit(9, 50), Options{Engine: Vector, Workers: 2, Lanes: 8, FaultSim: true},
			[]malformedCase{
				{"fault state dropped", "fault state", func(t *testing.T, s *checkpoint.Snapshot) {
					s.Fault = nil
				}},
				{"fault status dropped", "fault state", func(t *testing.T, s *checkpoint.Snapshot) {
					s.Fault.Statuses = s.Fault.Statuses[1:]
				}},
				{"fault pass out of range", "fault state", func(t *testing.T, s *checkpoint.Snapshot) {
					s.Fault.Pass = -1
				}},
				{"fault worker row dropped", "fault state", func(t *testing.T, s *checkpoint.Snapshot) {
					s.Fault.Det = s.Fault.Det[1:]
				}},
			}},
	}
	for _, e := range engines {
		name := e.engine
		if e.opts.FaultSim {
			name += "-faults"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			base := e.opts
			base.Horizon = malformedHorizon
			src := filepath.Join(dir, "src.ckpt")
			o := base
			o.Probe = NewRecorder()
			o.Checkpoint = CheckpointSpec{Path: src, EverySteps: 64}
			if _, err := Simulate(e.c.Clone(), o); err != nil {
				t.Fatalf("checkpointed run: %v", err)
			}
			for _, tc := range e.cases {
				snap, err := checkpoint.Load(src)
				if err != nil {
					t.Fatal(err)
				}
				if snap.Step <= 0 {
					t.Fatalf("snapshot at step %d; want a mid-run capture", snap.Step)
				}
				tc.mutate(t, snap)
				mutant := filepath.Join(dir, "mutant.ckpt")
				if err := checkpoint.Save(mutant, snap); err != nil {
					t.Fatal(err)
				}
				r := base
				r.Probe = NewRecorder()
				r.ResumeFrom = mutant
				res, err := Simulate(e.c.Clone(), r)
				checkMalformedRejection(t, e.engine, tc, res, err)
			}
		})
	}
}

const malformedHorizon = 300

func checkMalformedRejection(t *testing.T, engine string, tc malformedCase, res *Result, err error) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: resumed from the mutant (resumed=%v)", tc.name, res.Resumed)
		return
	}
	var ce *checkpoint.CorruptError
	var me *checkpoint.MismatchError
	var gotEngine, gotField string
	switch {
	case errors.As(err, &ce):
		gotEngine, gotField = ce.Engine, ce.Field
	case errors.As(err, &me):
		gotEngine, gotField = me.Engine, me.Field
	default:
		t.Errorf("%s: refusal %v (%T) is neither a *CorruptError nor a *MismatchError", tc.name, err, err)
		return
	}
	if gotEngine != engine || gotField != tc.field {
		t.Errorf("%s: refusal names engine %q field %q, want %q %q: %v", tc.name, gotEngine, gotField, engine, tc.field, err)
	}
}

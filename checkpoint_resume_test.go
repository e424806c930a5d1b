package parsim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"parsim/internal/checkpoint"
)

// vcdBytes renders rec as a VCD; resumed runs must reproduce these bytes
// exactly.
func vcdBytes(t *testing.T, c *Circuit, rec *Recorder, horizon Time) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteVCD(&buf, c, rec, horizon); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func sameFinals(t *testing.T, label string, want, got []Value) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d final values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !want[i].Equal(got[i]) {
			t.Fatalf("%s: node %d final %v, want %v", label, i, got[i], want[i])
		}
	}
}

// sameLaneFinals fails unless got holds want's lanes, naming the first
// lane that differs.
func sameLaneFinals(t *testing.T, want, got *LaneValues) {
	t.Helper()
	if want.Lanes() != got.Lanes() {
		t.Fatalf("lane finals: %d lanes, want %d", got.Lanes(), want.Lanes())
	}
	for l := 0; l < want.Lanes(); l++ {
		sameFinals(t, fmt.Sprintf("lane %d final", l), want.Lane(l), got.Lane(l))
	}
	if !want.Equal(got) {
		t.Fatal("lane finals differ")
	}
}

// testResumeBitIdentical runs base three ways — uninterrupted, checkpointed
// to completion, and resumed from the last periodic snapshot — and asserts
// the three runs are indistinguishable: final node states, lane finals, VCD
// bytes and work counters all match.
func testResumeBitIdentical(t *testing.T, c *Circuit, base Options) {
	t.Helper()
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")

	recA := NewRecorder()
	oA := base
	oA.Probe = recA
	resA, err := Simulate(c.Clone(), oA)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	vcdA := vcdBytes(t, c, recA, base.Horizon)

	recB := NewRecorder()
	oB := base
	oB.Probe = recB
	oB.Checkpoint = CheckpointSpec{Path: ckpt, EverySteps: 64}
	resB, err := Simulate(c.Clone(), oB)
	if err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	if resB.Resumed {
		t.Error("checkpointed run reports Resumed")
	}
	sameFinals(t, "checkpointed vs reference", resA.Final, resB.Final)
	if !bytes.Equal(vcdA, vcdBytes(t, c, recB, base.Horizon)) {
		t.Error("checkpointing perturbed the VCD output")
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no snapshot written: %v", err)
	}

	recC := NewRecorder()
	oC := base
	oC.Probe = recC
	oC.ResumeFrom = ckpt
	resC, err := Simulate(c.Clone(), oC)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !resC.Resumed {
		t.Error("resumed run does not report Resumed")
	}
	sameFinals(t, "resumed vs reference", resA.Final, resC.Final)
	sameLaneFinals(t, resA.LaneFinal, resC.LaneFinal)
	if !bytes.Equal(vcdA, vcdBytes(t, c, recC, base.Horizon)) {
		t.Error("resumed VCD differs from the uninterrupted run's")
	}
	ta, tc := resA.Stats.Totals(), resC.Stats.Totals()
	if ta.NodeUpdates != tc.NodeUpdates || ta.Evals != tc.Evals ||
		ta.BarrierWaits != tc.BarrierWaits || ta.EventsUsed != tc.EventsUsed {
		t.Errorf("resumed counters diverge: updates %d/%d evals %d/%d waits %d/%d events %d/%d",
			tc.NodeUpdates, ta.NodeUpdates, tc.Evals, ta.Evals,
			tc.BarrierWaits, ta.BarrierWaits, tc.EventsUsed, ta.EventsUsed)
	}
	if resA.Stats.TimeSteps != resC.Stats.TimeSteps {
		t.Errorf("resumed TimeSteps = %d, want %d", resC.Stats.TimeSteps, resA.Stats.TimeSteps)
	}
}

func TestResumeSequential(t *testing.T) {
	testResumeBitIdentical(t, RandomCircuit(5, 60),
		Options{Engine: Sequential, Horizon: 300})
}

func TestResumeSequentialUnitDelay(t *testing.T) {
	testResumeBitIdentical(t, RandomUnitCircuit(3, 60),
		Options{Engine: Sequential, Horizon: 300})
}

func TestResumeCompiled(t *testing.T) {
	testResumeBitIdentical(t, RandomUnitCircuit(3, 60),
		Options{Engine: Compiled, Horizon: 300, Workers: 3})
}

func TestResumeVector(t *testing.T) {
	testResumeBitIdentical(t, RandomUnitCircuit(7, 80),
		Options{Engine: Vector, Horizon: 300, Workers: 2, Lanes: 8})
}

func TestResumeVectorWide(t *testing.T) {
	testResumeBitIdentical(t, RandomUnitCircuit(11, 48),
		Options{Engine: Vector, Horizon: 300, Workers: 2, Lanes: 96, LaneStride: 3, ProbeLane: 65})
}

// TestResumeJIT: the codegen engine checkpoints at its quiescent per-step
// barrier and must resume bit-identically — finals, lane finals, VCD bytes
// and work counters all indistinguishable from an uninterrupted run.
func TestResumeJIT(t *testing.T) {
	testResumeBitIdentical(t, RandomUnitCircuit(7, 80),
		Options{Engine: JIT, Horizon: 300, Workers: 2, Lanes: 8})
}

// TestResumeJITScalar pins the scalar (lanes = 1) compile path, where the
// table kinds lower through per-lane scalar kernels whose state rides in
// the snapshot's Lanes rows rather than its bit-sliced planes.
func TestResumeJITScalar(t *testing.T) {
	testResumeBitIdentical(t, RandomUnitCircuit(3, 60),
		Options{Engine: JIT, Horizon: 300, Workers: 3})
}

// TestResumeJITWide is the multi-word-plane variant with an off-word probe
// lane, mirroring TestResumeVectorWide.
func TestResumeJITWide(t *testing.T) {
	testResumeBitIdentical(t, RandomUnitCircuit(11, 48),
		Options{Engine: JIT, Horizon: 300, Workers: 2, Lanes: 96, LaneStride: 3, ProbeLane: 65})
}

// TestResumeJITGeneratorMidPeriod resumes a 64-lane run between two
// changes of a per-lane rand generator. Generators evaluate only at their
// change times, so the resumed run must take up the change schedule at the
// snapshot step and still match the uninterrupted run bit for bit: with a
// probe (per-span update path), without one (per-slice count), and as a
// fault simulation, whose stuck-at lanes on the generator's output must
// not count as changes on the first resumed step.
func TestResumeJITGeneratorMidPeriod(t *testing.T) {
	const period = 40
	b := NewBuilder("rand-mid-period")
	clk, rst := b.Bit("clk"), b.Bit("rst")
	b.Clock("osc", clk, 6, 0, 0)
	b.Wave("rstgen", rst, []Time{0, 4}, []Value{V(1, 1), V(1, 0)})
	r, d, q := b.Node("r", 8), b.Node("d", 8), b.Node("q", 8)
	b.Rand("rgen", r, period, 5)
	b.Gate(Xor, "mix", 1, d, r, q)
	b.AddElement(DFFR, "ff", 1, []NodeID{q}, []NodeID{clk, rst, d}, Params{Init: V(8, 0)})
	c := b.MustBuild()
	base := Options{Engine: JIT, Horizon: 300, Workers: 2, Lanes: 64, LaneStride: 7}
	testResumeBitIdentical(t, c, base)

	faults := base
	faults.FaultSim, faults.FaultStatuses = true, true
	for _, o := range []Options{base, faults} {
		resA, err := Simulate(c.Clone(), o)
		if err != nil {
			t.Fatalf("reference run: %v", err)
		}
		ckpt := filepath.Join(t.TempDir(), "mid.ckpt")
		oB := o
		oB.Checkpoint = CheckpointSpec{Path: ckpt, EverySteps: 64}
		if _, err := Simulate(c.Clone(), oB); err != nil {
			t.Fatalf("checkpointed run: %v", err)
		}
		snap, err := checkpoint.Load(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Step%period == 0 {
			t.Fatalf("snapshot at step %d is a generator change, want one between changes", snap.Step)
		}
		oC := o
		oC.ResumeFrom = ckpt
		resC, err := Simulate(c.Clone(), oC)
		if err != nil {
			t.Fatalf("resumed run: %v", err)
		}
		if !resC.Resumed {
			t.Error("resumed run does not report Resumed")
		}
		sameFinals(t, "final", resA.Final, resC.Final)
		sameLaneFinals(t, resA.LaneFinal, resC.LaneFinal)
		if o.FaultSim {
			for i, f := range resA.FaultCoverage.Faults {
				if resC.FaultCoverage.Faults[i] != f {
					t.Errorf("fault %d status %+v, want %+v", i, resC.FaultCoverage.Faults[i], f)
				}
			}
		}
		if ta, tc := resA.Stats.Totals(), resC.Stats.Totals(); ta.NodeUpdates != tc.NodeUpdates || ta.Evals != tc.Evals {
			t.Errorf("fault sim %v: resumed counters diverge: updates %d/%d evals %d/%d",
				o.FaultSim, tc.NodeUpdates, ta.NodeUpdates, tc.Evals, ta.Evals)
		}
	}
}

// TestResumeVectorFaultSim checkpoints a multi-pass concurrent fault
// simulation and resumes it from the last mid-pass snapshot: the stitched
// coverage table, final values and work counters must match an
// uninterrupted run's exactly.
func TestResumeVectorFaultSim(t *testing.T) {
	c := RandomUnitCircuit(9, 50)
	base := Options{Engine: Vector, Horizon: 200, Workers: 2, Lanes: 8,
		FaultSim: true, FaultStatuses: true}

	resA, err := Simulate(c.Clone(), base)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if resA.FaultCoverage == nil || resA.FaultCoverage.Passes < 2 {
		t.Fatalf("want a multi-pass fault run, got %+v", resA.FaultCoverage)
	}

	ckpt := filepath.Join(t.TempDir(), "fault.ckpt")
	oB := base
	oB.Checkpoint = CheckpointSpec{Path: ckpt, EverySteps: 64}
	if _, err := Simulate(c.Clone(), oB); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no snapshot written: %v", err)
	}

	oC := base
	oC.ResumeFrom = ckpt
	resC, err := Simulate(c.Clone(), oC)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !resC.Resumed {
		t.Error("resumed run does not report Resumed")
	}
	sameFinals(t, "fault-sim resume", resA.Final, resC.Final)
	ca, cc := resA.FaultCoverage, resC.FaultCoverage
	if cc == nil {
		t.Fatal("resumed run has no fault coverage")
	}
	if ca.Total != cc.Total || ca.Detected != cc.Detected || ca.Passes != cc.Passes {
		t.Errorf("coverage diverges: total %d/%d detected %d/%d passes %d/%d",
			cc.Total, ca.Total, cc.Detected, ca.Detected, cc.Passes, ca.Passes)
	}
	if len(ca.Faults) != len(cc.Faults) {
		t.Fatalf("status rows: %d, want %d", len(cc.Faults), len(ca.Faults))
	}
	for i := range ca.Faults {
		if ca.Faults[i] != cc.Faults[i] {
			t.Errorf("fault %d status %+v, want %+v", i, cc.Faults[i], ca.Faults[i])
		}
	}
	ta, tc := resA.Stats.Totals(), resC.Stats.Totals()
	if ta.NodeUpdates != tc.NodeUpdates || ta.Evals != tc.Evals || ta.EventsUsed != tc.EventsUsed {
		t.Errorf("resumed counters diverge: updates %d/%d evals %d/%d",
			tc.NodeUpdates, ta.NodeUpdates, tc.Evals, ta.Evals)
	}
	if resA.Stats.TimeSteps != resC.Stats.TimeSteps {
		t.Errorf("resumed TimeSteps = %d, want %d", resC.Stats.TimeSteps, resA.Stats.TimeSteps)
	}
}

// TestResumeAfterCancel checkpoints a run, cancels it mid-flight (the
// engine writes a final snapshot at the stop boundary), then resumes and
// checks the stitched run matches an uninterrupted one. The plane-core rows
// exercise its drain capture at the stop step under both registry names.
func TestResumeAfterCancel(t *testing.T) {
	for _, base := range []Options{
		{Engine: Sequential},
		{Engine: Compiled, Workers: 2},
		{Engine: JIT, Workers: 2},
		{Engine: Vector, Workers: 2, Lanes: 8},
	} {
		alg := base.Engine
		c := RandomUnitCircuit(3, 60)
		base.Horizon, base.CostSpin = 2000, 50

		recA := NewRecorder()
		oA := base
		oA.Probe = recA
		resA, err := Simulate(c.Clone(), oA)
		if err != nil {
			t.Fatalf("%v reference: %v", alg, err)
		}

		ckpt := filepath.Join(t.TempDir(), "cancel.ckpt")
		oB := base
		oB.Checkpoint = CheckpointSpec{Path: ckpt, EverySteps: 100}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		// The timeout is the backstop; the probe cancels at a fixed
		// simulated time, so the run stops mid-flight on a fast host too.
		oB.Probe = cancelAtProbe{at: cancelAt, cancel: cancel}
		_, err = SimulateContext(ctx, c.Clone(), oB)
		cancel()
		if err == nil {
			// The run beat the timeout; the periodic snapshots still allow
			// the resume leg below.
			t.Logf("%v: run finished before cancellation", alg)
		}
		if _, statErr := os.Stat(ckpt); statErr != nil {
			t.Fatalf("%v: no snapshot after cancel: %v", alg, statErr)
		}
		if errors.Is(err, context.Canceled) {
			// Periodic captures are every 100 steps and at most one per
			// write gap; only the drain capture lands past the cancel time.
			snap, lerr := checkpoint.Load(ckpt)
			if lerr != nil {
				t.Fatalf("%v: %v", alg, lerr)
			}
			if snap.Step < int64(cancelAt) {
				t.Errorf("%v: snapshot at step %d, want the drain capture at or after %d", alg, snap.Step, cancelAt)
			}
		}

		recC := NewRecorder()
		oC := base
		oC.Probe = recC
		oC.ResumeFrom = ckpt
		resC, err := Simulate(c.Clone(), oC)
		if err != nil {
			t.Fatalf("%v resume: %v", alg, err)
		}
		if !resC.Resumed {
			t.Errorf("%v: resumed run does not report Resumed", alg)
		}
		sameFinals(t, alg+" cancel-resume", resA.Final, resC.Final)
	}
}

// cancelAt is the simulated time TestResumeAfterCancel stops its run at.
const cancelAt Time = 1000

// cancelAtProbe cancels a run at its first node change at or after at.
type cancelAtProbe struct {
	at     Time
	cancel context.CancelFunc
}

func (p cancelAtProbe) OnChange(_ NodeID, t Time, _ Value) {
	if t >= p.at {
		p.cancel()
	}
}

// TestResumeJITSnapshotWithoutMarks resumes a snapshot checked in from the
// plane core as it was before snapshots carried the selective trace's
// pending marks (RandomUnitCircuit(7, 80), jit, 2 workers, 64 lanes, a
// probe, captured at step 64). Such a snapshot resumes with every block
// marked, so its values — finals, every lane's finals, the VCD bytes — and
// its node updates equal an uninterrupted run's, while its first resumed
// step evaluates the blocks the uninterrupted run skipped there: Evals can
// only be larger.
func TestResumeJITSnapshotWithoutMarks(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "resume", "jit-random-7-80-l64-p2.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	if err := os.WriteFile(ckpt, data, 0o600); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Load(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Marks != nil || snap.Step <= 0 {
		t.Fatalf("checked-in snapshot has marks %v at step %d; want none, mid-run", snap.Marks, snap.Step)
	}

	c := RandomUnitCircuit(7, 80)
	base := Options{Engine: JIT, Horizon: 300, Workers: 2, Lanes: 64}
	recA := NewRecorder()
	oA := base
	oA.Probe = recA
	resA, err := Simulate(c.Clone(), oA)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	recC := NewRecorder()
	oC := base
	oC.Probe = recC
	oC.ResumeFrom = ckpt
	resC, err := Simulate(c.Clone(), oC)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !resC.Resumed {
		t.Error("resumed run does not report Resumed")
	}
	sameFinals(t, "resumed vs reference", resA.Final, resC.Final)
	sameLaneFinals(t, resA.LaneFinal, resC.LaneFinal)
	if !bytes.Equal(vcdBytes(t, c, recA, base.Horizon), vcdBytes(t, c, recC, base.Horizon)) {
		t.Error("resumed VCD differs from the uninterrupted run's")
	}
	ta, tc := resA.Stats.Totals(), resC.Stats.Totals()
	if ta.NodeUpdates != tc.NodeUpdates || resA.Stats.TimeSteps != resC.Stats.TimeSteps {
		t.Errorf("resumed updates %d over %d steps, want %d over %d",
			tc.NodeUpdates, resC.Stats.TimeSteps, ta.NodeUpdates, resA.Stats.TimeSteps)
	}
	if tc.Evals < ta.Evals {
		t.Errorf("resumed evals %d, fewer than the uninterrupted run's %d", tc.Evals, ta.Evals)
	}
}

// TestResumeRefusesScalarCompiledSnapshot resumes a snapshot the scalar
// compiled-mode engine wrote, before compiled mode ran on the plane core
// (testdata/resume, random-3-60 at two workers, horizon 300). Its digest
// still matches the run's, but it holds node values and element state, not
// node planes: the resume must be refused with a typed error naming the
// engine, before any step runs or any probe change is replayed.
func TestResumeRefusesScalarCompiledSnapshot(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "resume", "compiled-random-3-60-p2.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	if err := os.WriteFile(ckpt, data, 0o600); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Load(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Engine != string(Compiled) || len(snap.Values) == 0 || len(snap.Planes) != 0 || snap.Step <= 0 {
		t.Fatalf("checked-in snapshot: engine %q, %d values, %d planes, step %d; want a mid-run scalar compiled snapshot",
			snap.Engine, len(snap.Values), len(snap.Planes), snap.Step)
	}
	rec := NewRecorder()
	res, err := Simulate(RandomUnitCircuit(3, 60), Options{
		Engine: Compiled, Workers: 2, Horizon: 300, Probe: rec, ResumeFrom: ckpt,
	})
	var ce *checkpoint.CorruptError
	var me *checkpoint.MismatchError
	switch {
	case errors.As(err, &ce):
		if ce.Engine != string(Compiled) {
			t.Errorf("refusal names engine %q, want compiled: %v", ce.Engine, err)
		}
	case errors.As(err, &me):
		if me.Engine != string(Compiled) {
			t.Errorf("refusal names engine %q, want compiled: %v", me.Engine, err)
		}
	default:
		t.Fatalf("resume returned %v (%T), want a *CorruptError or *MismatchError", err, err)
	}
	if res != nil {
		t.Errorf("a refused resume returned a result (%d steps)", res.Stats.TimeSteps)
	}
	if n := len(rec.Nodes()); n != 0 {
		t.Errorf("a refused resume replayed probe changes on %d nodes", n)
	}
}

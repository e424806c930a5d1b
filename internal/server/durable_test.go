package server

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"parsim/internal/checkpoint"
	"parsim/internal/cluster"
	"parsim/internal/engine"
)

// durableConfig is the base config for the crash-durability tests: one
// core, a state directory, a tight checkpoint interval so short runs
// still snapshot.
func durableConfig(dir string) Config {
	return Config{
		CoreBudget:      2,
		MaxQueue:        8,
		StateDir:        dir,
		CheckpointEvery: 50,
	}
}

// waitTerminal polls a job until it leaves the queued/running states.
func waitTerminal(t *testing.T, ts *testServer, id string) jobDoc {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var v jobDoc
		if code := ts.getJSON(t, "/v1/jobs/"+id, &v); code != http200 {
			t.Fatalf("GET job: status %d", code)
		}
		if v.State != jobQueued && v.State != jobRunning {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("job never reached a terminal state")
	return jobDoc{}
}

const http200 = 200

// journalLines parses every record currently in the journal file.
func journalLines(t *testing.T, dir string) []journalRecord {
	t.Helper()
	recs, _, err := readJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatalf("reading journal: %v", err)
	}
	return recs
}

// TestJournalRecoveryDoneJob restarts the server over the same state
// directory and checks a finished job survives with its result intact —
// same state, same final values, same counters.
func TestJournalRecoveryDoneJob(t *testing.T) {
	dir := t.TempDir()
	ts := newTestServer(t, durableConfig(dir))

	var sub jobDoc
	resp := ts.submit(t, cluster.Submission{
		Netlist: testNetlist, Engine: "sequential", Horizon: 400,
	}, &sub)
	if resp.StatusCode != 202 {
		t.Fatalf("submit: %s", resp.Status)
	}
	before := waitTerminal(t, ts, sub.ID)
	if before.State != jobDone || before.Result == nil {
		t.Fatalf("job finished %s (result %v)", before.State, before.Result)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	ts.Drain(ctx)
	cancel()

	// A journal must exist and end with a done record for the job.
	recs := journalLines(t, dir)
	if len(recs) == 0 {
		t.Fatal("journal is empty after a durable run")
	}
	last := recs[len(recs)-1]
	if last.Type != recDone || last.Job != sub.ID {
		t.Fatalf("last journal record = %+v, want done for %s", last, sub.ID)
	}

	ts2 := newTestServer(t, durableConfig(dir))
	var after jobDoc
	if code := ts2.getJSON(t, "/v1/jobs/"+sub.ID, &after); code != http200 {
		t.Fatalf("recovered job: status %d", code)
	}
	if after.State != jobDone {
		t.Fatalf("recovered job state = %s, want done", after.State)
	}
	if after.Result == nil {
		t.Fatal("recovered job lost its result")
	}
	if got, want := after.Result.Stats.Totals().Evals, before.Result.Stats.Totals().Evals; got != want {
		t.Errorf("recovered Evals = %d, want %d", got, want)
	}
	if len(after.Result.Final) != len(before.Result.Final) {
		t.Fatalf("recovered %d final values, want %d", len(after.Result.Final), len(before.Result.Final))
	}
	for i := range before.Result.Final {
		if !before.Result.Final[i].Equal(after.Result.Final[i]) {
			t.Errorf("final[%d] = %v, want %v", i, after.Result.Final[i], before.Result.Final[i])
		}
	}
}

// TestDrainResume interrupts a running checkpointed job with an expired
// drain (the engine writes a final snapshot at the stop boundary, the
// journal keeps the job in-flight) and checks the restarted server
// re-queues it, resumes from the snapshot, and finishes with the same
// final values an uninterrupted run produces.
func TestDrainResume(t *testing.T) {
	// Reference: the same job run to completion without interruptions.
	ref := newTestServer(t, Config{CoreBudget: 2, MaxQueue: 8})
	var refSub jobDoc
	// The horizon is deliberately long (several seconds of simulation):
	// the drain below must land while the job is still running, even when
	// the whole test binary shares one loaded core, so the window between
	// the first durable snapshot and completion has to dwarf scheduling
	// latency.
	ref.submit(t, cluster.Submission{
		Netlist: testNetlist, Engine: "sequential", Horizon: 200000, CostSpin: 200,
	}, &refSub)
	refView := waitTerminal(t, ref, refSub.ID)
	if refView.State != jobDone {
		t.Fatalf("reference job finished %s: %s", refView.State, refView.Error)
	}

	dir := t.TempDir()
	ts := newTestServer(t, durableConfig(dir))
	var sub jobDoc
	resp := ts.submit(t, cluster.Submission{
		Netlist: testNetlist, Engine: "sequential", Horizon: 200000, CostSpin: 200,
	}, &sub)
	if resp.StatusCode != 202 {
		t.Fatalf("submit: %s", resp.Status)
	}

	// Wait for at least one periodic snapshot to reach the journal, so the
	// interruption lands mid-run with durable progress behind it.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no checkpointed record appeared in the journal")
		}
		seen := false
		for _, rec := range journalLines(t, dir) {
			if rec.Type == recCheckpointed && rec.Job == sub.ID {
				seen = true
			}
		}
		if seen {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// An already-expired drain context: the base context is cancelled
	// immediately, the engine stops at the next step boundary and writes a
	// final snapshot there.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	ts.Drain(expired)

	if _, err := os.Stat(filepath.Join(dir, sub.ID+".ckpt")); err != nil {
		t.Fatalf("no snapshot on disk after drain: %v", err)
	}
	for _, rec := range journalLines(t, dir) {
		if rec.Job == sub.ID && (rec.Type == recDone || rec.Type == recFailed || rec.Type == recCancelled) {
			t.Fatalf("interrupted job has terminal journal record %q; it would not be resumed", rec.Type)
		}
	}

	ts2 := newTestServer(t, durableConfig(dir))
	after := waitTerminal(t, ts2, sub.ID)
	if after.State != jobDone {
		t.Fatalf("resumed job finished %s: %s", after.State, after.Error)
	}
	if after.Result == nil || !after.Result.Resumed {
		t.Fatalf("recovered job did not resume from its snapshot (result %+v)", after.Result)
	}
	if after.Result.Stats.TimeSteps != refView.Result.Stats.TimeSteps {
		t.Errorf("resumed TimeSteps = %d, want %d", after.Result.Stats.TimeSteps, refView.Result.Stats.TimeSteps)
	}
	for i := range refView.Result.Final {
		if !refView.Result.Final[i].Equal(after.Result.Final[i]) {
			t.Errorf("final[%d] = %v, want %v", i, after.Result.Final[i], refView.Result.Final[i])
		}
	}
	ta, tr := after.Result.Stats.Totals(), refView.Result.Stats.Totals()
	if ta.NodeUpdates != tr.NodeUpdates || ta.Evals != tr.Evals {
		t.Errorf("stitched counters diverge: updates %d/%d evals %d/%d",
			ta.NodeUpdates, tr.NodeUpdates, ta.Evals, tr.Evals)
	}
}

// TestJournalTornFinalLine checks that a crash artifact — a half-written
// final record — is tolerated: the journal loads, the torn event simply
// never happened, and the records the recovered run appends start on a
// line of their own, so the restart after that loads the journal too.
func TestJournalTornFinalLine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	req := cluster.Submission{Netlist: testNetlist, Engine: "sequential", Horizon: 100}
	accepted, err := json.Marshal(journalRecord{Type: recAccepted, Job: "j-000001", Seq: 1, Req: &req})
	if err != nil {
		t.Fatal(err)
	}
	content := string(accepted) + "\n" + `{"type":"done","job":"j-0000`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}

	ts := newTestServer(t, durableConfig(dir))
	// The torn done record never happened, so the job re-runs to done.
	after := waitTerminal(t, ts, "j-000001")
	if after.State != jobDone {
		t.Fatalf("recovered job finished %s: %s", after.State, after.Error)
	}
	if after.Result == nil || after.Result.Resumed {
		t.Fatalf("job without a snapshot should re-run from scratch (result %+v)", after.Result)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	ts.Drain(ctx)
	cancel()

	ts2 := newTestServer(t, durableConfig(dir))
	var again jobDoc
	if code := ts2.getJSON(t, "/v1/jobs/j-000001", &again); code != http200 {
		t.Fatalf("second restart: status %d", code)
	}
	if again.State != jobDone || again.Result == nil {
		t.Fatalf("second restart: job %s (result %v), want done with its result", again.State, again.Result)
	}
}

// TestJournalCorruptMidFile checks that a malformed record anywhere but
// the final line refuses to load — silently skipping journal records
// would resurrect the wrong state.
func TestJournalCorruptMidFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	content := "{not json}\n" + `{"type":"started","job":"j-000001"}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(durableConfig(dir)); err == nil {
		t.Fatal("New accepted a journal with a corrupt mid-file record")
	} else if !strings.Contains(err.Error(), "malformed record") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestRecoveryPreservesIDCounter checks a restarted server never reuses a
// journalled job id.
func TestRecoveryPreservesIDCounter(t *testing.T) {
	dir := t.TempDir()
	ts := newTestServer(t, durableConfig(dir))
	var first jobDoc
	ts.submit(t, cluster.Submission{Netlist: testNetlist, Engine: "sequential", Horizon: 100}, &first)
	waitTerminal(t, ts, first.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	ts.Drain(ctx)
	cancel()

	ts2 := newTestServer(t, durableConfig(dir))
	var second jobDoc
	ts2.submit(t, cluster.Submission{Netlist: testNetlist, Engine: "sequential", Horizon: 100}, &second)
	if second.ID == first.ID {
		t.Fatalf("restarted server reused job id %s", first.ID)
	}
}

// TestJournalReplayCarriesEveryField replays an accepted record written in
// the format earlier daemons journal, with every submission field set, and
// checks the recovered job runs under an engine.Config carrying each value.
func TestJournalReplayCarriesEveryField(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "sibling.ckpt")
	if err := checkpoint.Save(snap, &checkpoint.Snapshot{Engine: "vector"}); err != nil {
		t.Fatal(err)
	}
	quote := func(s string) string {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	content := `{"type":"accepted","job":"j-000001","seq":1,"req":{"netlist":` + quote(testNetlist) +
		`,"engine":"batched","workers":2,"horizon":64,"deadline_ms":60000,"watchdog_ms":250,` +
		`"lint":"warn","fallback":true,"cost_spin":3,"watch":["q"],"lanes":4,"lane_stride":5,` +
		`"probe_lane":1,"fault_sim":true,"fault_max_passes":2,"fault_statuses":true,` +
		`"resume_from":` + quote(snap) + `},"at":"2026-01-02T03:04:05Z"}` + "\n" +
		`{"type":"done","job":"j-000001","result":{},"at":"2026-01-02T03:04:06Z"}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}

	ts := newTestServer(t, durableConfig(dir))
	j, ok := ts.jobs.get("j-000001")
	if !ok {
		t.Fatal("journalled job was not recovered")
	}
	if j.engine != "vector" || j.deadline != time.Minute || len(j.watch) != 1 || j.rec == nil {
		t.Fatalf("recovered job: engine %q, deadline %v, watch %v", j.engine, j.deadline, j.watch)
	}
	want := engine.Config{
		Workers:        2,
		Horizon:        64,
		Probe:          j.rec,
		CostSpin:       3,
		Lint:           engine.LintWarn,
		Watchdog:       250 * time.Millisecond,
		Fallback:       &engine.FallbackPolicy{},
		ResumeFrom:     snap,
		Lanes:          4,
		LaneStride:     5,
		ProbeLane:      1,
		FaultSim:       true,
		FaultMaxPasses: 2,
		FaultStatuses:  true,
	}
	if !reflect.DeepEqual(j.cfg, want) {
		t.Fatalf("recovered config\n got %+v\nwant %+v", j.cfg, want)
	}
}

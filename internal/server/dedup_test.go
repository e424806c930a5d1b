package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"parsim/internal/cluster"
)

// metricsBody fetches /metrics as text.
func (ts *testServer) metricsBody(t *testing.T) string {
	t.Helper()
	resp, err := http.Get(ts.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.String()
}

// parsesDuring returns how many netlists the daemon parsed while f ran.
// Tests using it must not run in parallel with other submitting tests.
func parsesDuring(f func()) int64 {
	before := parseRuns.Load()
	f()
	return parseRuns.Load() - before
}

// postRaw submits a body byte for byte, for tests that care how it is
// spelled.
func (ts *testServer) postRaw(t *testing.T, body string, out any) int {
	t.Helper()
	resp, err := http.Post(ts.ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding submit response (%s): %v", resp.Status, err)
		}
	}
	return resp.StatusCode
}

// TestDedupCacheHit is the satellite bug fix from the issue: a
// byte-identical back-to-back submission must be served from the result
// cache instead of re-simulated.
func TestDedupCacheHit(t *testing.T) {
	ts := newTestServer(t, Config{CoreBudget: 2, MaxQueue: 8, DedupCache: 16})

	var first jobDoc
	if resp := ts.submit(t, cluster.Submission{Netlist: testNetlist, Engine: "sequential", Horizon: 64}, &first); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", resp.StatusCode)
	}
	v1 := ts.await(t, first.ID, 10*time.Second)
	if v1.State != jobDone {
		t.Fatalf("first job: state %s (error %q)", v1.State, v1.Error)
	}

	var second jobDoc
	if resp := ts.submit(t, cluster.Submission{Netlist: testNetlist, Engine: "sequential", Horizon: 64}, &second); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: status %d", resp.StatusCode)
	}
	if second.ID == first.ID {
		t.Fatal("dedup reused the job id; each submission keeps its own record")
	}
	v2 := ts.await(t, second.ID, 10*time.Second)
	if v2.State != jobDone {
		t.Fatalf("deduped job: state %s (error %q)", v2.State, v2.Error)
	}
	if v2.Result == nil || v1.Result == nil {
		t.Fatal("missing result on a done job")
	}
	if v2.Result.Stats.Evals != v1.Result.Stats.Evals {
		t.Fatalf("deduped result diverged: %d evals vs %d", v2.Result.Stats.Evals, v1.Result.Stats.Evals)
	}

	body := ts.metricsBody(t)
	if !strings.Contains(body, "parsimd_dedup_hits_total 1") {
		t.Fatalf("metrics missing parsimd_dedup_hits_total 1\n%s", body)
	}
	// Both submissions count as submitted; only one simulated.
	if !strings.Contains(body, "parsimd_jobs_submitted_total 2") {
		t.Errorf("metrics missing parsimd_jobs_submitted_total 2")
	}
	// The engine counters prove no second simulation happened: evals stay
	// at exactly one run's worth even though two jobs finished done.
	evalsLine := fmt.Sprintf(`parsimd_engine_evals_total{engine="sequential"} %d`, v1.Result.Stats.Evals)
	if !strings.Contains(body, evalsLine) {
		t.Errorf("deduped submission re-ran: want %q in metrics\n%s", evalsLine, body)
	}
	if !strings.Contains(body, `parsimd_jobs_total{state="done"} 2`) {
		t.Errorf("both jobs should finish done")
	}
}

// TestDedupInflightCoalesce submits an identical job while the first is
// still running: the second must coalesce onto the in-flight run and
// finish with its result, not start a second simulation.
func TestDedupInflightCoalesce(t *testing.T) {
	started := make(chan struct{}, 4)
	gate := testBlock.reset(started)
	ts := newTestServer(t, Config{CoreBudget: 4, MaxQueue: 8, DedupCache: 16})

	req := cluster.Submission{Netlist: testNetlist, Engine: "test-block", Horizon: 64}
	var primary jobDoc
	if resp := ts.submit(t, req, &primary); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("primary submit: status %d", resp.StatusCode)
	}
	<-started // primary is now running and holds the in-flight slot

	var waiter jobDoc
	if n := parsesDuring(func() {
		if resp := ts.submit(t, req, &waiter); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("waiter submit: status %d", resp.StatusCode)
		}
	}); n != 0 {
		t.Errorf("verbatim twin of an in-flight job was parsed %d times; it needs no circuit to wait", n)
	}
	// The waiter must not dispatch a second run of the engine.
	select {
	case <-started:
		t.Fatal("identical in-flight submission started its own run")
	case <-time.After(100 * time.Millisecond):
	}

	close(gate)
	pv := ts.await(t, primary.ID, 10*time.Second)
	wv := ts.await(t, waiter.ID, 10*time.Second)
	if pv.State != jobDone || wv.State != jobDone {
		t.Fatalf("states: primary %s, waiter %s", pv.State, wv.State)
	}
	if wv.Result == nil {
		t.Fatal("coalesced waiter has no result")
	}
	if !strings.Contains(ts.metricsBody(t), "parsimd_dedup_hits_total 1") {
		t.Fatal("in-flight coalesce did not count as a dedup hit")
	}
}

// TestDedupOffByDefault: with no DedupCache configured, identical
// submissions each simulate — the pre-existing contract tests rely on
// that, and so do benchmarks that replay one circuit.
func TestDedupOffByDefault(t *testing.T) {
	ts := newTestServer(t, Config{CoreBudget: 2, MaxQueue: 8})
	req := cluster.Submission{Netlist: testNetlist, Engine: "sequential", Horizon: 64}
	for i := 0; i < 2; i++ {
		var sub jobDoc
		ts.submit(t, req, &sub)
		if v := ts.await(t, sub.ID, 10*time.Second); v.State != jobDone {
			t.Fatalf("submission %d: state %s", i, v.State)
		}
	}
	body := ts.metricsBody(t)
	if !strings.Contains(body, "parsimd_dedup_hits_total 0") {
		t.Fatalf("dedup engaged without DedupCache\n%s", body)
	}
	if !strings.Contains(body, "parsimd_run_milliseconds_count 2") {
		t.Errorf("expected both submissions to run\n%s", body)
	}
}

// TestDedupSkipsWatchJobs: jobs that record waveforms are never deduped
// (each needs its own recorder), even when byte-identical.
func TestDedupSkipsWatchJobs(t *testing.T) {
	ts := newTestServer(t, Config{CoreBudget: 2, MaxQueue: 8, DedupCache: 16})
	req := cluster.Submission{Netlist: testNetlist, Engine: "sequential", Horizon: 64, Watch: []string{"q"}}
	for i := 0; i < 2; i++ {
		var sub jobDoc
		if n := parsesDuring(func() { ts.submit(t, req, &sub) }); n != 1 {
			t.Fatalf("submission %d: watch job parsed %d times, want 1 (its body must not be remembered)", i, n)
		}
		if v := ts.await(t, sub.ID, 10*time.Second); v.State != jobDone {
			t.Fatalf("submission %d: state %s", i, v.State)
		}
		// Each run must serve its own waveform.
		if code := ts.getJSON(t, "/v1/jobs/"+sub.ID+"/vcd", nil); code != http.StatusOK {
			t.Fatalf("submission %d: vcd status %d", i, code)
		}
	}
	if !strings.Contains(ts.metricsBody(t), "parsimd_dedup_hits_total 0") {
		t.Fatal("watch job was deduped")
	}
}

// TestDedupVerbatimSkipsParse: a byte-identical resubmission is answered
// from the body memo — no JSON decode of the netlist, no parse, no key —
// and still reads like any other finished job.
func TestDedupVerbatimSkipsParse(t *testing.T) {
	ts := newTestServer(t, Config{CoreBudget: 2, MaxQueue: 8, DedupCache: 16})
	req := cluster.Submission{Netlist: testNetlist, Engine: "seq", Horizon: 64}

	var first jobDoc
	if n := parsesDuring(func() { ts.submit(t, req, &first) }); n != 1 {
		t.Fatalf("first submission parsed %d times, want 1", n)
	}
	v1 := ts.await(t, first.ID, 10*time.Second)

	var second jobDoc
	if n := parsesDuring(func() { ts.submit(t, req, &second) }); n != 0 {
		t.Fatalf("verbatim resubmission parsed %d times, want 0", n)
	}
	if second.State != jobDone {
		t.Fatalf("verbatim resubmission answered %s, want done on the spot", second.State)
	}
	if second.ID != "j-000002" {
		t.Errorf("resubmission id %q, want j-000002", second.ID)
	}
	v2 := ts.await(t, second.ID, 10*time.Second)
	if v2.Engine != "sequential" || v2.Circuit != "ring" || v2.Workers != 1 || v2.Horizon != 64 {
		t.Errorf("memo-served job lost its description: %+v", v2)
	}
	if v1.Result == nil || v2.Result == nil || !reflect.DeepEqual(v1.Result.Final, v2.Result.Final) ||
		v1.Result.Stats.Evals != v2.Result.Stats.Evals {
		t.Errorf("memo-served result differs from the run's:\n run  %+v\n memo %+v", v1.Result, v2.Result)
	}
	body := ts.metricsBody(t)
	for _, want := range []string{
		"parsimd_dedup_hits_total 1",
		"parsimd_jobs_submitted_total 2",
		`parsimd_jobs_total{state="done"} 2`,
		// One run's worth of evaluations: the second job never simulated.
		fmt.Sprintf(`parsimd_engine_evals_total{engine="sequential"} %d`, v1.Result.Stats.Evals),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
}

// TestDedupReencodedTwinHitsByContent: a body that spells the same job
// differently (JSON fields and netlist lines in another order, the engine
// by its alias) misses the body memo but still hits through the
// content-addressed key.
func TestDedupReencodedTwinHitsByContent(t *testing.T) {
	ts := newTestServer(t, Config{CoreBudget: 2, MaxQueue: 8, DedupCache: 16})
	var first jobDoc
	ts.submit(t, cluster.Submission{Netlist: testNetlist, Engine: "sequential", Horizon: 64}, &first)
	v1 := ts.await(t, first.ID, 10*time.Second)

	lines := strings.Split(strings.TrimSpace(testNetlist), "\n")
	shuffled := []string{lines[0]}
	for i := len(lines) - 1; i >= 1; i-- { // nodes first: elem lines name them
		if strings.HasPrefix(lines[i], "node") {
			shuffled = append(shuffled, lines[i])
		}
	}
	for i := len(lines) - 1; i >= 1; i-- {
		if strings.HasPrefix(lines[i], "elem") {
			shuffled = append(shuffled, lines[i])
		}
	}
	netlistJSON, _ := json.Marshal(strings.Join(shuffled, "\n") + "\n")
	twin := `{"horizon": 64, "engine": "seq", "netlist": ` + string(netlistJSON) + `}`

	var second jobDoc
	if n := parsesDuring(func() {
		if code := ts.postRaw(t, twin, &second); code != http.StatusAccepted {
			t.Fatalf("twin submit: status %d", code)
		}
	}); n != 1 {
		t.Errorf("re-encoded twin parsed %d times, want 1", n)
	}
	if second.State != jobDone {
		t.Fatalf("re-encoded twin answered %s, want a dedup hit", second.State)
	}
	body := ts.metricsBody(t)
	oneRun := fmt.Sprintf(`parsimd_engine_evals_total{engine="sequential"} %d`, v1.Result.Stats.Evals)
	if !strings.Contains(body, "parsimd_dedup_hits_total 1") || !strings.Contains(body, oneRun) {
		t.Errorf("re-encoded twin was not served from the result cache\n%s", body)
	}
}

// TestDedupEvictedResultResimulates: a remembered body whose result has
// left the cache is built in full and runs again, under the next id.
func TestDedupEvictedResultResimulates(t *testing.T) {
	ts := newTestServer(t, Config{CoreBudget: 2, MaxQueue: 8, DedupCache: 2})
	req := cluster.Submission{Netlist: testNetlist, Engine: "sequential", Horizon: 64}
	var first jobDoc
	ts.submit(t, req, &first)
	v1 := ts.await(t, first.ID, 10*time.Second)

	// Two other results push the job's own out of the two-entry cache; its
	// body stays remembered.
	ts.dedup.Put("other-1", json.RawMessage(`{}`))
	ts.dedup.Put("other-2", json.RawMessage(`{}`))

	var second jobDoc
	if n := parsesDuring(func() { ts.submit(t, req, &second) }); n != 1 {
		t.Errorf("resubmission after eviction parsed %d times, want 1", n)
	}
	if second.ID != "j-000002" {
		t.Errorf("resubmission id %q, want j-000002", second.ID)
	}
	v2 := ts.await(t, second.ID, 10*time.Second)
	if v2.State != jobDone || v2.Result == nil || v2.Result.Stats.Evals != v1.Result.Stats.Evals {
		t.Fatalf("re-simulated job: %+v", v2)
	}
	body := ts.metricsBody(t)
	twoRuns := fmt.Sprintf(`parsimd_engine_evals_total{engine="sequential"} %d`, 2*v1.Result.Stats.Evals)
	if !strings.Contains(body, "parsimd_dedup_hits_total 0") || !strings.Contains(body, twoRuns) {
		t.Errorf("evicted result should have re-simulated without counting a hit\n%s", body)
	}

	// The fresh result is cached again, so a third copy is a memo hit.
	var third jobDoc
	if n := parsesDuring(func() { ts.submit(t, req, &third) }); n != 0 || third.State != jobDone {
		t.Errorf("third submission: parsed %d times, state %s; want a parse-free hit", n, third.State)
	}
}

// TestDedupRefusedBodyNotRemembered: a body that fails admission is
// refused afresh every time.
func TestDedupRefusedBodyNotRemembered(t *testing.T) {
	ts := newTestServer(t, Config{CoreBudget: 2, MaxQueue: 8, DedupCache: 16})
	bad := cluster.Submission{Netlist: testNetlist + "elem bogus e9 out=q\n", Engine: "sequential", Horizon: 64}
	for i := 0; i < 2; i++ {
		if n := parsesDuring(func() {
			if resp := ts.submit(t, bad, nil); resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("submission %d: status %d, want 400", i, resp.StatusCode)
			}
		}); n != 1 {
			t.Errorf("submission %d: refused body parsed %d times, want 1", i, n)
		}
	}
	if n := ts.memo.Len(); n != 0 {
		t.Errorf("body memo holds %d entries after only refused submissions", n)
	}
	if !strings.Contains(ts.metricsBody(t), "parsimd_jobs_submitted_total 0") {
		t.Error("refused submissions were counted as submitted")
	}
}

// TestDedupFastPathSurvivesRestart: with a state directory, a job served
// from the body memo is journalled like any other — a restarted daemon
// still knows it, with the result it was served.
func TestDedupFastPathSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.DedupCache = 16
	ts := newTestServer(t, cfg)
	req := cluster.Submission{Netlist: testNetlist, Engine: "sequential", Horizon: 200}

	var first, second jobDoc
	ts.submit(t, req, &first)
	before := waitTerminal(t, ts, first.ID)
	if n := parsesDuring(func() { ts.submit(t, req, &second) }); n != 0 {
		t.Fatalf("verbatim resubmission parsed %d times, want 0", n)
	}
	if second.State != jobDone {
		t.Fatalf("verbatim resubmission answered %s", second.State)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	ts.Drain(ctx)
	cancel()

	var accepted, done bool
	for _, rec := range journalLines(t, dir) {
		if rec.Job != second.ID {
			continue
		}
		switch rec.Type {
		case recAccepted:
			accepted = rec.Req != nil && rec.Req.Netlist == testNetlist
		case recDone:
			done = len(rec.Result) > 0
		}
	}
	if !accepted || !done {
		t.Fatalf("journal for %s: accepted-with-request %v, done-with-result %v", second.ID, accepted, done)
	}

	ts2 := newTestServer(t, cfg)
	var after jobDoc
	if code := ts2.getJSON(t, "/v1/jobs/"+second.ID, &after); code != http200 {
		t.Fatalf("recovered job: status %d", code)
	}
	if after.State != jobDone || after.Result == nil ||
		!reflect.DeepEqual(after.Result.Final, before.Result.Final) {
		t.Fatalf("recovered memo-served job: %+v", after)
	}
	// Ids keep counting from where the journal stopped.
	var third jobDoc
	ts2.submit(t, req, &third)
	if third.ID != "j-000003" {
		t.Errorf("first id after restart %q, want j-000003", third.ID)
	}
}

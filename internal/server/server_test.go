package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"parsim/internal/circuit"
	"parsim/internal/cluster"
	"parsim/internal/engine"
	"parsim/internal/logic"
	"parsim/internal/stats"
)

// blockEngine is a controllable engine for scheduler tests: every run
// parks until the job-wide gate opens or the context is cancelled. It
// never publishes progress, so a Config.Watchdog window trips on it —
// which is exactly what the deadline/stall tests need.
type blockEngine struct {
	mu      sync.Mutex
	gate    chan struct{}
	started chan struct{} // receives one tick per run that began
}

func (b *blockEngine) Name() string { return "test-block" }

func (b *blockEngine) Run(ctx context.Context, c *circuit.Circuit, cfg engine.Config) (*engine.Report, error) {
	b.mu.Lock()
	gate := b.gate
	started := b.started
	b.mu.Unlock()
	if started != nil {
		started <- struct{}{}
	}
	rep := &engine.Report{
		Stats: stats.Run{Algorithm: b.Name(), Circuit: c.Name, Workers: cfg.Workers, Horizon: cfg.Horizon},
		Final: make([]logic.Value, len(c.Nodes)),
	}
	rep.Stats.Aggregate(0, make([]stats.WorkerCounters, cfg.Workers))
	select {
	case <-gate:
		return rep, nil
	case <-ctx.Done():
		return rep, ctx.Err()
	}
}

// reset rearms the gate and returns it, so each test controls only its
// own runs.
func (b *blockEngine) reset(started chan struct{}) chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gate = make(chan struct{})
	b.started = started
	return b.gate
}

var testBlock = func() *blockEngine {
	b := &blockEngine{}
	b.reset(nil)
	engine.Register(b)
	return b
}()

// testNetlist is a small three-inverter ring driven by a clock — valid
// for every engine (unit delays, so Compiled agrees too).
const testNetlist = `circuit ring
node clk 1
node a 1
node b 1
node q 1
elem clock osc delay=1 out=clk period=8
elem not n1 delay=1 out=a in=clk
elem not n2 delay=1 out=b in=a
elem not n3 delay=1 out=q in=b
`

type testServer struct {
	*Server
	ts *httptest.Server
}

// jobDoc is the job document as a client decodes it: jobView with the
// result parsed.
type jobDoc struct {
	ID       string         `json:"id"`
	State    jobState       `json:"state"`
	Engine   string         `json:"engine"`
	Circuit  string         `json:"circuit"`
	Workers  int            `json:"workers"`
	Horizon  int64          `json:"horizon"`
	QueuedMS int64          `json:"queued_ms"`
	RunMS    int64          `json:"run_ms"`
	Error    string         `json:"error"`
	Result   *engine.Report `json:"result"`
}

func newTestServer(t *testing.T, cfg Config) *testServer {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return &testServer{Server: s, ts: ts}
}

// submit posts a job request and decodes the response body into out.
func (ts *testServer) submit(t *testing.T, req cluster.Submission, out any) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", resp.Status, err)
		}
	}
	return resp
}

// getJSON fetches a path and decodes it into out, returning the status.
func (ts *testServer) getJSON(t *testing.T, path string, out any) int {
	t.Helper()
	resp, err := http.Get(ts.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s %s: %v", path, resp.Status, err)
		}
	}
	return resp.StatusCode
}

// await polls a job until it leaves queued/running, failing the test on
// timeout.
func (ts *testServer) await(t *testing.T, id string, timeout time.Duration) jobDoc {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var v jobDoc
		if code := ts.getJSON(t, "/v1/jobs/"+id, &v); code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		if v.State != jobQueued && v.State != jobRunning {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, v.State, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEndToEndAllEngines submits the ring netlist to every registered
// real engine, polls to completion, and checks the run report.
func TestEndToEndAllEngines(t *testing.T) {
	ts := newTestServer(t, Config{CoreBudget: 4, MaxQueue: 32})
	for _, name := range engine.Names() {
		if name == "test-block" {
			continue
		}
		workers := 2
		if name == "sequential" {
			workers = 1
		}
		var sub jobDoc
		resp := ts.submit(t, cluster.Submission{
			Netlist: testNetlist, Engine: name, Workers: workers, Horizon: 64,
		}, &sub)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: submit status %d", name, resp.StatusCode)
		}
		if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+sub.ID {
			t.Errorf("%s: Location = %q", name, loc)
		}
		v := ts.await(t, sub.ID, 10*time.Second)
		if v.State != jobDone {
			t.Fatalf("%s: state %s (error %q)", name, v.State, v.Error)
		}
		if v.Result == nil {
			t.Fatalf("%s: done job has no result", name)
		}
		if v.Result.Stats.Evals == 0 {
			t.Errorf("%s: zero evaluations in result", name)
		}
		if v.Engine != name {
			t.Errorf("%s: job engine %q", name, v.Engine)
		}
	}
}

// TestSchedulerNeverOversubscribes floods the server with 64 concurrent
// in-flight jobs and asserts, via the scheduler's own gauge, that
// reserved cores never exceed the budget while every job still finishes.
func TestSchedulerNeverOversubscribes(t *testing.T) {
	budget := runtime.GOMAXPROCS(0)
	ts := newTestServer(t, Config{CoreBudget: budget, MaxQueue: 128})

	const jobs = 64
	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		workers := 1 + i%budget // mix of narrow and wide jobs
		var sub jobDoc
		resp := ts.submit(t, cluster.Submission{
			Netlist: testNetlist, Engine: "asynchronous", Workers: workers, Horizon: 128,
		}, &sub)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d: submit status %d", i, resp.StatusCode)
		}
		ids = append(ids, sub.ID)
	}
	inFlight := ts.QueueDepth() + ts.RunningJobs()
	for _, id := range ids {
		v := ts.await(t, id, 30*time.Second)
		if v.State != jobDone {
			t.Fatalf("job %s: state %s (error %q)", id, v.State, v.Error)
		}
	}
	if peak := ts.CoresPeak(); peak > budget {
		t.Fatalf("scheduler oversubscribed: peak %d cores reserved, budget %d", peak, budget)
	}
	if peak := ts.CoresPeak(); peak == 0 {
		t.Fatal("peak gauge never moved; jobs did not run through the scheduler")
	}
	if ts.CoresInUse() != 0 {
		t.Fatalf("cores still reserved after all jobs finished: %d", ts.CoresInUse())
	}
	t.Logf("in-flight after submission burst: %d; peak cores %d / budget %d",
		inFlight, ts.CoresPeak(), budget)
}

// TestQueueFullRejects fills the queue with blocked jobs and checks that
// the next submission is answered 429 with a Retry-After hint instead of
// queueing unboundedly.
func TestQueueFullRejects(t *testing.T) {
	started := make(chan struct{}, 8)
	gate := testBlock.reset(started)
	defer close(gate)
	ts := newTestServer(t, Config{CoreBudget: 1, MaxQueue: 2})

	// One job runs (reserving the single core), two fill the queue.
	for i := 0; i < 3; i++ {
		resp := ts.submit(t, cluster.Submission{Netlist: testNetlist, Engine: "test-block", Horizon: 8}, nil)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d: submit status %d", i, resp.StatusCode)
		}
	}
	<-started // the first job is definitely running, so 2 sit queued
	var errBody errorBody
	resp := ts.submit(t, cluster.Submission{Netlist: testNetlist, Engine: "test-block", Horizon: 8}, &errBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	if !strings.Contains(errBody.Error, "queue full") {
		t.Errorf("429 body: %q", errBody.Error)
	}
}

// TestAdmissionValidation covers the 400/413 admission paths.
func TestAdmissionValidation(t *testing.T) {
	ts := newTestServer(t, Config{CoreBudget: 2, MaxQueue: 4, MaxBodyBytes: 4096, MaxNodes: 3})
	cases := []struct {
		name string
		req  cluster.Submission
		want int
		msg  string
	}{
		{"unknown engine", cluster.Submission{Netlist: testNetlist, Engine: "warp-9", Horizon: 8}, 400, "unknown algorithm"},
		{"zero horizon", cluster.Submission{Netlist: testNetlist, Engine: "asynchronous"}, 400, "horizon"},
		{"too wide", cluster.Submission{Netlist: testNetlist, Engine: "asynchronous", Workers: 99, Horizon: 8}, 400, "core budget"},
		{"bad lint", cluster.Submission{Netlist: testNetlist, Engine: "asynchronous", Horizon: 8, Lint: "pedantic"}, 400, "lint"},
		{"bad netlist", cluster.Submission{Netlist: "circuit x\nnode", Engine: "asynchronous", Horizon: 8}, 400, "netlist"},
		{"too many nodes", cluster.Submission{Netlist: testNetlist, Engine: "asynchronous", Horizon: 8}, 413, "nodes"},
		{"unknown watch node", cluster.Submission{Netlist: "circuit x\nnode a 1\nelem clock c delay=1 out=a period=4\n",
			Engine: "asynchronous", Horizon: 8, Watch: []string{"zz"}}, 400, "watch"},
		{"cost_spin over the cap", cluster.Submission{Netlist: testNetlist, Engine: "sequential", Horizon: 8, CostSpin: 1e15}, 400, "cap 10000"},
	}
	for _, tc := range cases {
		var errBody errorBody
		resp := ts.submit(t, tc.req, &errBody)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%q)", tc.name, resp.StatusCode, tc.want, errBody.Error)
			continue
		}
		if !strings.Contains(errBody.Error, tc.msg) {
			t.Errorf("%s: body %q missing %q", tc.name, errBody.Error, tc.msg)
		}
	}
	// Oversized body: bigger than MaxBodyBytes before it even parses.
	big := cluster.Submission{Netlist: strings.Repeat("# padding\n", 1024), Engine: "asynchronous", Horizon: 8}
	var errBody errorBody
	if resp := ts.submit(t, big, &errBody); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413 (%q)", resp.StatusCode, errBody.Error)
	}
}

// TestResumeFromDeviceRunsFromScratch: resume_from names a path the
// submitter chose. A device is no snapshot, so the job is admitted
// promptly — Load refuses it by stat, without reading it — and runs from
// t=0 under the daemon's unusable-snapshot policy.
func TestResumeFromDeviceRunsFromScratch(t *testing.T) {
	if _, err := os.Stat("/dev/zero"); err != nil {
		t.Skip("no /dev/zero on this host")
	}
	ts := newTestServer(t, Config{CoreBudget: 1, MaxQueue: 4})
	start := time.Now()
	var sub jobDoc
	resp := ts.submit(t, cluster.Submission{Netlist: testNetlist, Engine: "sequential", Horizon: 64, ResumeFrom: "/dev/zero"}, &sub)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("admission took %v", d)
	}
	v := ts.await(t, sub.ID, 10*time.Second)
	if v.State != jobDone || v.Result == nil {
		t.Fatalf("state %s (error %q)", v.State, v.Error)
	}
	if v.Result.Resumed || v.Result.Stats.TimeSteps == 0 {
		t.Errorf("resumed=%v after %d steps; want a run from scratch", v.Result.Resumed, v.Result.Stats.TimeSteps)
	}
}

// TestDeadlineFailsJob gives a blocked run a tiny deadline and expects
// the job to fail with the context error in its status.
func TestDeadlineFailsJob(t *testing.T) {
	gate := testBlock.reset(nil)
	defer close(gate)
	ts := newTestServer(t, Config{CoreBudget: 1, MaxQueue: 4})
	var sub jobDoc
	ts.submit(t, cluster.Submission{Netlist: testNetlist, Engine: "test-block", Horizon: 8, DeadlineMS: 50}, &sub)
	v := ts.await(t, sub.ID, 10*time.Second)
	if v.State != jobFailed {
		t.Fatalf("state %s, want failed", v.State)
	}
	if !strings.Contains(v.Error, "deadline") {
		t.Errorf("error %q does not mention the deadline", v.Error)
	}
}

// TestWatchdogStallSurfaces runs the never-progressing engine under a
// watchdog window and expects the stall report in the job status.
func TestWatchdogStallSurfaces(t *testing.T) {
	gate := testBlock.reset(nil)
	defer close(gate)
	ts := newTestServer(t, Config{CoreBudget: 1, MaxQueue: 4})
	var sub jobDoc
	ts.submit(t, cluster.Submission{Netlist: testNetlist, Engine: "test-block", Horizon: 8,
		WatchdogMS: 100, DeadlineMS: 30000}, &sub)
	v := ts.await(t, sub.ID, 10*time.Second)
	if v.State != jobFailed {
		t.Fatalf("state %s, want failed", v.State)
	}
	if !strings.Contains(v.Error, "stall") {
		t.Errorf("error %q does not mention a stall", v.Error)
	}
}

// TestGracefulDrain checks the full shutdown story: running jobs finish,
// queued jobs are cancelled, new submissions get 503, and a drain whose
// context expires force-cancels what is left.
func TestGracefulDrain(t *testing.T) {
	started := make(chan struct{}, 8)
	gate := testBlock.reset(started)
	ts := newTestServer(t, Config{CoreBudget: 1, MaxQueue: 8})

	var first, second jobDoc
	ts.submit(t, cluster.Submission{Netlist: testNetlist, Engine: "test-block", Horizon: 8}, &first)
	ts.submit(t, cluster.Submission{Netlist: testNetlist, Engine: "test-block", Horizon: 8}, &second)
	<-started // first is running; second sits in the queue

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainErr <- ts.Drain(ctx)
	}()

	// Draining: new work refused, health reports it.
	waitFor(t, time.Second, func() bool {
		return ts.getJSON(t, "/healthz", nil) == http.StatusServiceUnavailable
	})
	if resp := ts.submit(t, cluster.Submission{Netlist: testNetlist, Engine: "test-block", Horizon: 8}, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}

	close(gate) // let the running job finish
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if v := ts.await(t, first.ID, time.Second); v.State != jobDone {
		t.Errorf("running job after drain: %s, want done", v.State)
	}
	if v := ts.await(t, second.ID, time.Second); v.State != jobCancelled {
		t.Errorf("queued job after drain: %s, want cancelled", v.State)
	}
}

// TestForcedDrainCancelsRunning drains with an already-expired context:
// the running job must be force-cancelled, not waited on forever.
func TestForcedDrainCancelsRunning(t *testing.T) {
	started := make(chan struct{}, 1)
	gate := testBlock.reset(started)
	defer close(gate)
	ts := newTestServer(t, Config{CoreBudget: 1, MaxQueue: 4})
	var sub jobDoc
	ts.submit(t, cluster.Submission{Netlist: testNetlist, Engine: "test-block", Horizon: 8}, &sub)
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ts.Drain(ctx); err != context.Canceled {
		t.Fatalf("forced drain returned %v, want context.Canceled", err)
	}
	v := ts.await(t, sub.ID, time.Second)
	if v.State != jobCancelled {
		t.Fatalf("force-cancelled job state %s, want cancelled (error %q)", v.State, v.Error)
	}
}

// TestDrainDiscardsHeadAdmittedLate replays the window inside Drain
// between marking the server draining and closing the core budget: the
// dispatcher waits in acquire for the queued head, the running job frees
// its core in that window, and the head must still end cancelled rather
// than run.
func TestDrainDiscardsHeadAdmittedLate(t *testing.T) {
	started := make(chan struct{}, 2)
	gate := testBlock.reset(started)
	ts := newTestServer(t, Config{CoreBudget: 1, MaxQueue: 4})

	var running, queued jobDoc
	ts.submit(t, cluster.Submission{Netlist: testNetlist, Engine: "test-block", Horizon: 8}, &running)
	<-started
	ts.submit(t, cluster.Submission{Netlist: testNetlist, Engine: "test-block", Horizon: 8}, &queued)
	waitFor(t, 5*time.Second, func() bool {
		buf := make([]byte, 1<<20)
		return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("(*coreBudget).acquire"))
	})

	ts.draining.Store(true) // Drain's first step; the budget stays open
	close(gate)             // the running job ends and releases its core
	if v := ts.await(t, running.ID, 5*time.Second); v.State != jobDone {
		t.Errorf("running job: %s, want done", v.State)
	}
	if v := ts.await(t, queued.ID, 5*time.Second); v.State != jobCancelled {
		t.Errorf("queued head: %s, want cancelled", v.State)
	}
	// Drain's second step, so the cleanup drain finds the dispatcher gone.
	ts.queue.close()
	ts.budget.close()
}

// TestVCDEndpoint submits with watch nodes and downloads the waveform.
func TestVCDEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{CoreBudget: 2, MaxQueue: 4})
	var sub jobDoc
	ts.submit(t, cluster.Submission{Netlist: testNetlist, Engine: "asynchronous", Workers: 2,
		Horizon: 64, Watch: []string{"clk", "q"}}, &sub)

	// Before completion the endpoint must refuse with 409 or, if the tiny
	// run already finished, serve the file; only assert the former when
	// the job is still in flight.
	v := ts.await(t, sub.ID, 10*time.Second)
	if v.State != jobDone {
		t.Fatalf("state %s (error %q)", v.State, v.Error)
	}
	resp, err := http.Get(ts.ts.URL + "/v1/jobs/" + sub.ID + "/vcd")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("vcd status %d: %s", resp.StatusCode, buf.String())
	}
	for _, want := range []string{"$var", "clk", "$enddefinitions"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("VCD output missing %q:\n%s", want, buf.String())
		}
	}

	// A job without watch nodes has no waveform.
	var plain jobDoc
	ts.submit(t, cluster.Submission{Netlist: testNetlist, Engine: "sequential", Horizon: 16}, &plain)
	ts.await(t, plain.ID, 10*time.Second)
	if code := ts.getJSON(t, "/v1/jobs/"+plain.ID+"/vcd", nil); code != http.StatusNotFound {
		t.Errorf("vcd of unwatched job: status %d, want 404", code)
	}
}

// TestMetricsEndpoint checks the Prometheus surface after real traffic.
func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{CoreBudget: 2, MaxQueue: 4})
	var sub jobDoc
	ts.submit(t, cluster.Submission{Netlist: testNetlist, Engine: "sequential", Horizon: 64}, &sub)
	if v := ts.await(t, sub.ID, 10*time.Second); v.State != jobDone {
		t.Fatalf("state %s", v.State)
	}
	// One rejection for the by-reason counter.
	ts.submit(t, cluster.Submission{Netlist: testNetlist, Engine: "nope", Horizon: 8}, nil)

	resp, err := http.Get(ts.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	for _, want := range []string{
		"parsimd_jobs_submitted_total 1",
		`parsimd_jobs_total{state="done"} 1`,
		`parsimd_jobs_rejected_total{reason="invalid"} 1`,
		fmt.Sprintf("parsimd_cores_budget %d", ts.CoreBudget()),
		"parsimd_queue_wait_milliseconds_count 1",
		"parsimd_run_milliseconds_bucket{le=\"+Inf\"} 1",
		`parsimd_engine_evals_total{engine="sequential"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
}

// TestListJobs checks the listing endpoint returns every submission in
// order.
func TestListJobs(t *testing.T) {
	ts := newTestServer(t, Config{CoreBudget: 2, MaxQueue: 8})
	var first, second jobDoc
	ts.submit(t, cluster.Submission{Netlist: testNetlist, Engine: "sequential", Horizon: 16}, &first)
	ts.submit(t, cluster.Submission{Netlist: testNetlist, Engine: "event-driven", Workers: 2, Horizon: 16}, &second)
	ts.await(t, first.ID, 10*time.Second)
	ts.await(t, second.ID, 10*time.Second)
	var list struct {
		Jobs []jobDoc `json:"jobs"`
	}
	if code := ts.getJSON(t, "/v1/jobs", &list); code != http.StatusOK {
		t.Fatalf("list status %d", code)
	}
	if len(list.Jobs) != 2 || list.Jobs[0].ID != first.ID || list.Jobs[1].ID != second.ID {
		t.Fatalf("listing wrong: %+v", list.Jobs)
	}
}

// TestJobNotFound pins the 404 shape.
// TestBatchedVectorJob submits one vector-engine job with four stimulus
// lanes and checks the per-lane results survive the JSON round trip:
// lane_final comes back with one row per lane, each row as wide as the
// netlist, and the probe lane's view equals the matching row.
func TestBatchedVectorJob(t *testing.T) {
	ts := newTestServer(t, Config{CoreBudget: 2, MaxQueue: 4})
	var sub jobDoc
	resp := ts.submit(t, cluster.Submission{
		Netlist: testNetlist, Engine: "vector", Workers: 1, Horizon: 64,
		Lanes: 4, LaneStride: 7, ProbeLane: 2,
	}, &sub)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	v := ts.await(t, sub.ID, 10*time.Second)
	if v.State != jobDone {
		t.Fatalf("state %s (error %q)", v.State, v.Error)
	}
	if v.Result == nil {
		t.Fatal("done job has no result")
	}
	if got := v.Result.LaneFinal.Lanes(); got != 4 {
		t.Fatalf("lane_final rows = %d, want 4", got)
	}
	for lane := 0; lane < 4; lane++ {
		if row := v.Result.LaneFinal.Lane(lane); len(row) != 4 { // clk, a, b, q
			t.Fatalf("lane %d: %d nodes, want 4", lane, len(row))
		}
	}
	// The ring has no rand/gray generators, so every lane sees the same
	// stimulus and the probe lane must agree with its own row (and, here,
	// with lane 0).
	for n, want := range v.Result.LaneFinal.Lane(2) {
		if v.Result.Final[n] != want {
			t.Fatalf("node %d: final %v, probe-lane row has %v", n, v.Result.Final[n], want)
		}
	}

	// Scalar engines ignore the batch fields and report no lane rows.
	var plain jobDoc
	ts.submit(t, cluster.Submission{Netlist: testNetlist, Engine: "compiled", Workers: 1, Horizon: 64, Lanes: 4}, &plain)
	pv := ts.await(t, plain.ID, 10*time.Second)
	if pv.State != jobDone {
		t.Fatalf("compiled state %s (error %q)", pv.State, pv.Error)
	}
	if got := pv.Result.LaneFinal.Lanes(); got != 0 {
		t.Fatalf("compiled run reported %d lane rows", got)
	}
}

// TestBatchedAdmissionValidation covers the lane- and fault-field 400
// paths.
func TestBatchedAdmissionValidation(t *testing.T) {
	ts := newTestServer(t, Config{CoreBudget: 2, MaxQueue: 4})
	cases := []struct {
		name string
		req  cluster.Submission
		msg  string
	}{
		{"lanes too wide", cluster.Submission{Netlist: testNetlist, Engine: "vector", Horizon: 8, Lanes: logic.MaxWideLanes + 1}, "lanes"},
		{"negative lanes", cluster.Submission{Netlist: testNetlist, Engine: "vector", Horizon: 8, Lanes: -1}, "lanes"},
		{"probe lane out of range", cluster.Submission{Netlist: testNetlist, Engine: "vector", Horizon: 8, Lanes: 4, ProbeLane: 4}, "probe_lane"},
		{"negative probe lane", cluster.Submission{Netlist: testNetlist, Engine: "vector", Horizon: 8, ProbeLane: -1}, "probe_lane"},
		// lanes: 0 means the engine's own default, and jit's is 1, not 64.
		{"probe lane past jit's default lanes", cluster.Submission{Netlist: testNetlist, Engine: "jit", Horizon: 8, ProbeLane: 3}, "probe_lane"},
		{"probe lane past auto's scalar lane", cluster.Submission{Netlist: testNetlist, Engine: "auto", Horizon: 8, ProbeLane: 3}, "probe_lane"},
		{"fault sim on scalar engine", cluster.Submission{Netlist: testNetlist, Engine: "asynchronous", Horizon: 8, FaultSim: true}, "fault_sim"},
		{"fault sim single lane", cluster.Submission{Netlist: testNetlist, Engine: "vector", Horizon: 8, Lanes: 1, FaultSim: true}, "fault_sim"},
	}
	for _, tc := range cases {
		var errBody errorBody
		resp := ts.submit(t, tc.req, &errBody)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%q)", tc.name, resp.StatusCode, errBody.Error)
			continue
		}
		if !strings.Contains(errBody.Error, tc.msg) {
			t.Errorf("%s: body %q missing %q", tc.name, errBody.Error, tc.msg)
		}
	}
}

// TestWideLaneAdmission is the plane-width admission table: a vector job's
// node budget is charged nodes x ceil(lanes/64) words, so widening the
// lanes shrinks the largest admissible netlist; scalar engines ignore the
// lane field entirely. testNetlist has 4 nodes and the server budgets 8,
// so one or two plane words fit and three don't.
func TestWideLaneAdmission(t *testing.T) {
	ts := newTestServer(t, Config{CoreBudget: 2, MaxQueue: 4, MaxNodes: 8})
	cases := []struct {
		name string
		req  cluster.Submission
		want int
		msg  string
	}{
		{"one word fits", cluster.Submission{Netlist: testNetlist, Engine: "vector", Horizon: 8, Lanes: 64}, 202, ""},
		{"two words fit", cluster.Submission{Netlist: testNetlist, Engine: "vector", Horizon: 8, Lanes: 128}, 202, ""},
		{"three words too big", cluster.Submission{Netlist: testNetlist, Engine: "vector", Horizon: 8, Lanes: 192}, 413, "plane words"},
		{"max width too big", cluster.Submission{Netlist: testNetlist, Engine: "vector", Horizon: 8, Lanes: logic.MaxWideLanes}, 413, "plane words"},
		{"fault sim wide too big", cluster.Submission{Netlist: testNetlist, Engine: "vector", Horizon: 8, Lanes: 1024, FaultSim: true}, 413, "plane words"},
		{"jit carries fault sim too", cluster.Submission{Netlist: testNetlist, Engine: "jit", Horizon: 8, Lanes: 64, FaultSim: true}, 202, ""},
		{"scalar ignores lanes", cluster.Submission{Netlist: testNetlist, Engine: "asynchronous", Horizon: 8, Lanes: logic.MaxWideLanes}, 202, ""},
	}
	for _, tc := range cases {
		var errBody errorBody
		var out any
		if tc.want != 202 {
			out = &errBody
		}
		resp := ts.submit(t, tc.req, out)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%q)", tc.name, resp.StatusCode, tc.want, errBody.Error)
			continue
		}
		if tc.msg != "" && !strings.Contains(errBody.Error, tc.msg) {
			t.Errorf("%s: body %q missing %q", tc.name, errBody.Error, tc.msg)
		}
	}
}

// TestWideFaultJob runs a fault-simulation job end to end through the
// daemon: submit with fault_sim, poll to completion, and check the
// fault_coverage section survives the JSON round trip with full coverage
// of the inverter ring's collapsed fault list.
func TestWideFaultJob(t *testing.T) {
	ts := newTestServer(t, Config{CoreBudget: 2, MaxQueue: 4})
	var sub jobDoc
	resp := ts.submit(t, cluster.Submission{
		Netlist: testNetlist, Engine: "vector", Workers: 1, Horizon: 64,
		Lanes: 64, FaultSim: true, FaultStatuses: true,
	}, &sub)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	v := ts.await(t, sub.ID, 10*time.Second)
	if v.State != jobDone {
		t.Fatalf("state %s (error %q)", v.State, v.Error)
	}
	cov := v.Result.FaultCoverage
	if cov == nil {
		t.Fatal("fault job result has no fault_coverage")
	}
	// The ring collapses every inverter output into the clock node: one
	// site, two polarities, both detected at the ring's sink.
	if cov.Total != 2 || cov.Detected != 2 {
		t.Fatalf("coverage %d/%d, want 2/2; statuses %+v", cov.Detected, cov.Total, cov.Faults)
	}
	if len(cov.Faults) != 2 {
		t.Fatalf("fault_statuses rows = %d, want 2", len(cov.Faults))
	}
	for _, st := range cov.Faults {
		if !strings.Contains(st.Site, "clk") || !st.Detected || st.Step < 0 {
			t.Fatalf("unexpected status row %+v", st)
		}
	}
	if got := v.Result.LaneFinal.Lanes(); got != 0 {
		t.Fatalf("fault job reported %d lane rows, want none", got)
	}
}

func TestJobNotFound(t *testing.T) {
	ts := newTestServer(t, Config{CoreBudget: 1, MaxQueue: 2})
	if code := ts.getJSON(t, "/v1/jobs/j-999999", nil); code != http.StatusNotFound {
		t.Fatalf("missing job: status %d, want 404", code)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Package server is the simulation service layer behind the parsimd
// daemon: an HTTP/JSON API over the engine registry with a bounded FIFO
// job queue, admission control, a core-budget scheduler that shares
// GOMAXPROCS across concurrent runs, content-addressed submission dedup,
// and a Prometheus-format /metrics endpoint.
//
// The API surface:
//
//	POST /v1/jobs          submit a netlist + engine/options; 202 + job id
//	GET  /v1/jobs          list all jobs, oldest first
//	GET  /v1/jobs/{id}     poll job status; includes the run report when done
//	GET  /v1/jobs/{id}/vcd stream the recorded waveform as VCD
//	GET  /healthz          liveness (503 while draining)
//	GET  /metrics          Prometheus text exposition
//
// Admission control is explicit: a full queue answers 429 with a
// Retry-After hint instead of queueing unboundedly, oversized bodies and
// netlists answer 413, and a draining server answers 503. One dispatcher
// goroutine pops jobs in FIFO order and reserves each job's worker count
// from the core budget before launching it, so the running set never
// oversubscribes the machine — a wide job waits at the head of the queue
// until enough cores free up (head-of-line blocking is the intended
// fairness: strict FIFO, no starvation of wide jobs).
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parsim/internal/checkpoint"
	"parsim/internal/circuit"
	"parsim/internal/cluster"
	"parsim/internal/engine"
	"parsim/internal/logic"
	"parsim/internal/netlist"
	"parsim/internal/stats"
	"parsim/internal/trace"

	// The daemon serves every registered engine; auto brings the five
	// it picks.
	_ "parsim/internal/auto"
	_ "parsim/internal/dist"
	_ "parsim/internal/timewarp"
)

// Config sizes the service. The zero value of any field selects the
// default documented on it.
type Config struct {
	// CoreBudget is the total worker cores the scheduler may hand out at
	// once across all running jobs. Default GOMAXPROCS.
	CoreBudget int
	// MaxQueue bounds the admission queue; a submission beyond it is
	// answered 429. Default 256.
	MaxQueue int
	// MaxBodyBytes caps the request body (and thereby the netlist text);
	// beyond it the submission is answered 413. Default 8 MiB.
	MaxBodyBytes int64
	// MaxNodes and MaxElems cap the parsed circuit size (413 beyond).
	// Default 200000 each.
	MaxNodes, MaxElems int
	// DefaultDeadline bounds a job that did not ask for a deadline;
	// MaxDeadline clamps one that asked for more. Defaults 2m and 10m.
	DefaultDeadline, MaxDeadline time.Duration
	// RetryAfter is the hint returned with 429 responses. Default 1s.
	RetryAfter time.Duration
	// StateDir enables crash durability: an append-only job journal plus
	// per-job checkpoint snapshots live here, and New replays the journal
	// on startup — finished jobs reappear in the status API with their
	// saved results, interrupted ones are re-queued and resumed from
	// their last snapshot. Empty (the default) disables durability.
	StateDir string
	// CheckpointEvery is the snapshot interval in simulated time steps for
	// durable jobs on checkpoint-capable engines; 0 selects the engine
	// default (engine.DefaultCheckpointEvery).
	CheckpointEvery int64
	// DedupCache enables content-addressed submission dedup: identical
	// submissions (same canonicalized netlist + result-affecting options)
	// are served from a bounded LRU of this many finished results, and an
	// identical submission arriving while its twin is still queued or
	// running coalesces onto that run instead of re-simulating. Jobs with
	// watch nodes are never deduped (their VCD state is per-job). 0 (the
	// default) disables dedup.
	DedupCache int
}

func (c *Config) withDefaults() {
	if c.CoreBudget <= 0 {
		c.CoreBudget = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 200000
	}
	if c.MaxElems <= 0 {
		c.MaxElems = 200000
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 2 * time.Minute
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 10 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
}

// Server is the simulation service. Create with New, serve via Handler,
// stop with Drain.
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	queue  *jobQueue
	budget *coreBudget
	met    *metrics
	jobs   *jobStore
	jnl    *journal             // nil unless Config.StateDir is set
	dedup  *cluster.ResultCache // nil unless Config.DedupCache > 0
	// memo maps the SHA-256 of a raw submission body to the memoEntry of
	// the job it was admitted as, so a verbatim resubmission reaches the
	// result cache without being decoded, parsed or keyed. Same bound as
	// dedup; nil with it.
	memo *cluster.ResultCache

	// dedupMu guards the two dedup indexes: inflight maps a job key to
	// the primary (first-submitted, actually running) job for that key,
	// waiters collects later identical submissions that will be finished
	// with the primary's result.
	dedupMu  sync.Mutex
	inflight map[string]*job
	waiters  map[string][]*job

	nextID       atomic.Int64
	runningJobs  atomic.Int64
	draining     atomic.Bool
	baseCtx      context.Context
	baseCancel   context.CancelFunc
	running      sync.WaitGroup // one per launched job goroutine
	dispatchDone chan struct{}
}

// New builds a Server and starts its dispatcher. When Config.StateDir is
// set, the job journal found there is replayed first — recovered jobs are
// queued ahead of any new submissions — so the error return covers an
// unreadable state directory or a corrupt journal.
func New(cfg Config) (*Server, error) {
	cfg.withDefaults()
	s := &Server{
		cfg:          cfg,
		mux:          http.NewServeMux(),
		queue:        newJobQueue(cfg.MaxQueue),
		budget:       newCoreBudget(cfg.CoreBudget),
		met:          newMetrics(),
		jobs:         newJobStore(),
		dispatchDone: make(chan struct{}),
	}
	if cfg.DedupCache > 0 {
		s.dedup = cluster.NewResultCache(cfg.DedupCache)
		s.memo = cluster.NewResultCache(cfg.DedupCache)
		s.inflight = make(map[string]*job)
		s.waiters = make(map[string][]*job)
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/vcd", s.handleVCD)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.StateDir != "" {
		if err := s.openState(); err != nil {
			return nil, err
		}
	}
	go s.dispatch()
	return s, nil
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Scheduler gauges, exported for tests and the daemon's own logging; the
// same numbers appear on /metrics.
func (s *Server) CoreBudget() int  { return s.budget.Budget() }
func (s *Server) CoresInUse() int  { return s.budget.InUse() }
func (s *Server) CoresPeak() int   { return s.budget.Peak() }
func (s *Server) QueueDepth() int  { return s.queue.depth() }
func (s *Server) RunningJobs() int { return int(s.runningJobs.Load()) }

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(`{"error":"response encoding failure"}`)
		status = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

// reject answers a refused submission, counting it by status first.
func (s *Server) reject(w http.ResponseWriter, status int, format string, args ...any) {
	s.met.onReject(status)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After",
			strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	}
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// memoEntry is what the daemon remembers about an admitted, keyed
// submission body: enough to answer a verbatim resubmission from the
// result cache, or park it on the in-flight run, without the circuit.
type memoEntry struct {
	key      string // content-addressed job key
	circName string
	engine   string // canonical
	cores    int
	horizon  circuit.Time
}

// submission is one POST body and, once something needs it, its decoded
// form.
type submission struct {
	body   []byte
	digest string // raw SHA-256 of body; empty when dedup is off
	req    *cluster.Submission
}

// request decodes the body on first use.
func (sub *submission) request() (*cluster.Submission, error) {
	if sub.req == nil {
		req, err := cluster.DecodeSubmission(sub.body)
		if err != nil {
			return nil, err
		}
		sub.req = req
	}
	return sub.req, nil
}

// readBody reads a request body of at most limit bytes into a buffer sized
// from Content-Length.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= limit {
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return buf.Bytes(), err
}

// handleSubmit is POST /v1/jobs: validate, admit, enqueue.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.reject(w, http.StatusServiceUnavailable, "server is draining; not accepting jobs")
		return
	}
	body, err := readBody(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.reject(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", s.cfg.MaxBodyBytes)
			return
		}
		s.reject(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	sub := &submission{body: body}

	// A body seen before needs no decoding to look its job up: it starts as
	// a job with no circuit, which a cache hit finishes and an in-flight
	// twin parks. Everything else is built in full.
	var j *job
	if s.dedup != nil {
		sum := sha256.Sum256(body)
		sub.digest = string(sum[:])
		if v, ok := s.memo.Get(sub.digest); ok {
			e := v.(*memoEntry)
			j = &job{key: e.key, circName: e.circName,
				cfg: engine.Config{Engine: e.engine, Workers: e.cores, Horizon: e.horizon}, state: jobQueued}
		}
	}
	if j == nil {
		if j = s.admit(w, sub); j == nil {
			return
		}
	}
	seq := s.nextID.Add(1)
	j.id = fmt.Sprintf("j-%06d", seq)
	j.submitted = time.Now()
	// Journal the acceptance before it becomes externally visible, so a
	// crash after the 202 never loses the job. The record carries the
	// decoded request, which replay rebuilds the job from.
	if s.jnl != nil {
		if req, err := sub.request(); err == nil {
			s.logJournal(journalRecord{Type: recAccepted, Job: j.id, Seq: seq, Req: req})
		}
	}

	for j.key != "" {
		if s.dedupSubmit(j) {
			// Served without a new simulation: either finished on the spot from
			// the result cache or coalesced onto an identical in-flight run.
			s.jobs.add(j)
			s.met.onSubmit()
			s.met.onDedupHit()
			w.Header().Set("Location", "/v1/jobs/"+j.id)
			writeJSON(w, http.StatusAccepted, j.view(time.Now()))
			return
		}
		if j.circ != nil {
			break // registered as its key's primary
		}
		// The remembered job's result has left the cache and no twin is in
		// flight: build it in full, under the id already journalled.
		full := s.admit(w, sub)
		if full == nil {
			s.logJournal(journalRecord{Type: recFailed, Job: j.id, Error: "rejected at admission"})
			return
		}
		full.id, full.submitted = j.id, j.submitted
		j = full
	}

	if err := s.queue.push(j); err != nil {
		s.clearPrimary(j)
		if errors.Is(err, errQueueFull) {
			s.reject(w, http.StatusTooManyRequests,
				"queue full (%d jobs); retry later", s.cfg.MaxQueue)
			return
		}
		s.reject(w, http.StatusServiceUnavailable, "server is draining; not accepting jobs")
		return
	}
	s.jobs.add(j)
	s.met.onSubmit()
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, j.view(time.Now()))
}

// admit decodes and validates a submission in full and returns its job,
// remembering the body when the job is keyed. On refusal it answers the
// request and returns nil.
func (s *Server) admit(w http.ResponseWriter, sub *submission) *job {
	req, err := sub.request()
	if err != nil {
		s.reject(w, http.StatusBadRequest, "%v", err)
		return nil
	}
	j, status, err := s.buildJob(req)
	if err != nil {
		s.reject(w, status, "%v", err)
		return nil
	}
	if j.key != "" {
		s.memo.Put(sub.digest, &memoEntry{key: j.key, circName: j.circName,
			engine: j.cfg.Engine, cores: j.cfg.Workers, horizon: j.cfg.Horizon})
	}
	return j
}

// dedupSubmit tries to satisfy a keyed submission without simulating.
// True: the job was finished from the result cache, or parked as a waiter
// on an identical in-flight run (it reaches a terminal state when that
// run does). False: no hit; a job that has its circuit was registered as
// its key's primary and the caller must queue it, one that has none (a
// remembered body) was left alone and the caller must build it in full.
func (s *Server) dedupSubmit(j *job) bool {
	if v, ok := s.dedup.Get(j.key); ok {
		result := v.(json.RawMessage)
		now := time.Now()
		j.setRunning(now)
		s.logJournal(journalRecord{Type: recDone, Job: j.id, Result: result})
		s.met.onFinish(j.cfg.Engine, jobDone, false, 0, stats.WorkerCounters{})
		j.finish(result, nil, now, jobDone)
		return true
	}
	s.dedupMu.Lock()
	defer s.dedupMu.Unlock()
	if _, running := s.inflight[j.key]; running {
		s.waiters[j.key] = append(s.waiters[j.key], j)
		return true
	}
	if j.circ != nil {
		s.inflight[j.key] = j
	}
	return false
}

// clearPrimary retracts a primary registration when the job never made it
// into the queue.
func (s *Server) clearPrimary(j *job) {
	if j.key == "" || s.dedup == nil {
		return
	}
	s.dedupMu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.dedupMu.Unlock()
}

// maxCostSpin caps an admitted cost_spin. circuit.Spin does not poll
// cancellation, so the cap bounds one evaluation — at the dearest kind
// (mul, Cost 60) 600k rounds, well under a millisecond — and the engines'
// per-step or per-activation polling bounds the rest: a job's cores come
// back at its deadline and a drain is not held up.
const maxCostSpin = 10_000

// parseRuns counts the netlists buildJob has parsed. Test hook: the
// promise that a verbatim resubmission is served without parsing is
// pinned against it.
var parseRuns atomic.Int64

// buildJob validates a submission and assembles the job record, mapping
// the wire options onto the engine.Config the job runs under; the handler
// assigns the id and timestamps. On refusal it returns the HTTP status the
// submission deserves. Journal recovery reuses it so a replayed request
// passes exactly the admission checks a live one does.
func (s *Server) buildJob(req *cluster.Submission) (*job, int, error) {
	fail := func(status int, format string, args ...any) (*job, int, error) {
		return nil, status, fmt.Errorf(format, args...)
	}
	eng, err := engine.Get(req.Engine)
	if err != nil {
		return fail(http.StatusBadRequest, "%v", err)
	}
	if req.Horizon <= 0 {
		return fail(http.StatusBadRequest, "horizon must be > 0, got %d", req.Horizon)
	}
	workers := req.Workers
	if workers == 0 {
		workers = 1
	}
	if workers < 0 {
		return fail(http.StatusBadRequest, "workers must be >= 0, got %d", workers)
	}
	if eng.Name() == "sequential" {
		workers = 1 // the reference engine is single-threaded by definition
	}
	if workers > s.budget.Budget() {
		return fail(http.StatusBadRequest,
			"workers %d exceeds the server's core budget %d; the job could never be scheduled",
			workers, s.budget.Budget())
	}
	lint, err := engine.ParseLintMode(req.Lint)
	if err != nil {
		return fail(http.StatusBadRequest, "%v", err)
	}
	deadline := time.Duration(req.DeadlineMS) * time.Millisecond
	if deadline <= 0 {
		deadline = s.cfg.DefaultDeadline
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}
	if req.WatchdogMS < 0 || req.DeadlineMS < 0 {
		return fail(http.StatusBadRequest, "deadline_ms and watchdog_ms must be >= 0")
	}
	if req.CostSpin > maxCostSpin {
		return fail(http.StatusBadRequest, "cost_spin %d exceeds the cap %d", req.CostSpin, maxCostSpin)
	}
	// The lane count the job will actually run at: the request's, else the
	// engine's own default (64 for vector, 1 for jit), else the single lane
	// of an engine that has no lane axis.
	lanes, err := engine.CheckLanes(eng, engine.Config{
		Lanes: req.Lanes, ProbeLane: req.ProbeLane, FaultSim: req.FaultSim,
	})
	if err != nil {
		return fail(http.StatusBadRequest, "%v", err)
	}

	parseRuns.Add(1)
	circ, err := netlist.ParseString(req.Netlist, netlist.Limits{
		MaxBytes: s.cfg.MaxBodyBytes,
		MaxNodes: s.cfg.MaxNodes,
		MaxElems: s.cfg.MaxElems,
	})
	if err != nil {
		if errors.Is(err, netlist.ErrLimit) {
			return fail(http.StatusRequestEntityTooLarge, "%v", err)
		}
		return fail(http.StatusBadRequest, "netlist: %v", err)
	}
	// Lane-width-aware admission: a batched job's state footprint scales
	// with nodes x plane words, so a wide-lane job must fit the same node
	// budget a 64-lane job is held to. The lane engines carry per-lane
	// planes; scalar engines ignore lanes and carry one machine word per
	// node either way.
	if engine.DefaultLanes(eng) > 0 {
		if words := logic.PlaneWords(lanes); len(circ.Nodes)*words > s.cfg.MaxNodes {
			return fail(http.StatusRequestEntityTooLarge,
				"circuit nodes (%d) x plane words (%d) exceeds the node budget %d; lower lanes or shrink the netlist",
				len(circ.Nodes), words, s.cfg.MaxNodes)
		}
	}

	var watch []circuit.NodeID
	for _, name := range req.Watch {
		n := circ.FindNode(strings.TrimSpace(name))
		if n == nil {
			return fail(http.StatusBadRequest, "watch: no node named %q", name)
		}
		watch = append(watch, n.ID)
	}

	resume := strings.TrimSpace(req.ResumeFrom)
	if resume != "" {
		if !engine.SupportsCheckpoint(eng.Name()) {
			log.Printf("parsimd: resume_from ignored: engine %s does not checkpoint", eng.Name())
			resume = ""
		} else if _, lerr := checkpoint.Load(resume); lerr != nil {
			log.Printf("parsimd: resume_from snapshot unusable (%v); running from scratch", lerr)
			resume = ""
		}
	}

	j := &job{
		circ:     circ,
		circName: circ.Name,
		cfg: engine.Config{
			Engine:         eng.Name(),
			Workers:        workers,
			Horizon:        circuit.Time(req.Horizon),
			CostSpin:       req.CostSpin,
			Lint:           lint,
			Watchdog:       time.Duration(req.WatchdogMS) * time.Millisecond,
			Fallback:       req.Fallback,
			Lanes:          req.Lanes,
			LaneStride:     req.LaneStride,
			ProbeLane:      req.ProbeLane,
			FaultSim:       req.FaultSim,
			FaultMaxPasses: req.FaultMaxPasses,
			FaultStatuses:  req.FaultStatuses,
			ResumeFrom:     resume,
		},
		deadline: deadline,
		watch:    watch,
		state:    jobQueued,
	}
	if len(watch) > 0 {
		j.rec = trace.NewRecorderFor(watch...)
		j.cfg.Probe = j.rec
	}
	// Content-addressed job key, computed only when dedup is on. Watch
	// jobs are excluded: their recorded waveform is per-job state a cached
	// result cannot stand in for.
	if s.dedup != nil && len(watch) == 0 {
		j.key = cluster.KeyForSubmission(circ, req)
	}
	return j, http.StatusOK, nil
}

// handleList is GET /v1/jobs.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	all := s.jobs.all()
	views := make([]jobView, len(all))
	for i, j := range all {
		views[i] = j.view(now)
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []jobView `json:"jobs"`
	}{Jobs: views})
}

// handleJob is GET /v1/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, j.view(time.Now()))
}

// handleVCD is GET /v1/jobs/{id}/vcd: stream the recorded waveform of a
// finished job. 409 while the job is still queued or running, 404 when
// the job recorded nothing (no watch nodes were requested).
func (s *Server) handleVCD(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	state, hasTrace := j.snapshot()
	if state == jobQueued || state == jobRunning {
		writeJSON(w, http.StatusConflict,
			errorBody{Error: fmt.Sprintf("job is %s; the waveform is available once it finishes", state)})
		return
	}
	if !hasTrace {
		writeJSON(w, http.StatusNotFound,
			errorBody{Error: "job recorded no waveform; submit with \"watch\" to trace nodes"})
		return
	}
	serveVCD(w, j)
}

// serveVCD streams a finished job's waveform. Split from handleVCD so
// the status-then-body order is straight-line (the respwrite lint checks
// it per function).
func serveVCD(w http.ResponseWriter, j *job) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	trace.WriteVCD(w, j.circ, j.rec, j.cfg.Horizon, j.watch...)
}

// handleHealthz is GET /healthz: 200 while accepting work, 503 draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := struct {
		Status     string `json:"status"`
		QueueDepth int    `json:"queue_depth"`
		Running    int    `json:"jobs_running"`
		CoresInUse int    `json:"cores_in_use"`
	}{"ok", s.QueueDepth(), s.RunningJobs(), s.CoresInUse()}
	status := http.StatusOK
	if s.draining.Load() {
		body.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

// handleMetrics is GET /metrics, Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	s.met.render(w, gauges{
		queueDepth: s.QueueDepth(),
		running:    s.RunningJobs(),
		budget:     s.budget.Budget(),
		inUse:      s.budget.InUse(),
		peak:       s.budget.Peak(),
	})
}

// dispatch is the scheduler loop: pop jobs in FIFO order, reserve their
// cores, launch them. Exactly one dispatcher runs per Server, so the
// core-budget wait preserves submission order — a wide job blocks the
// head of the queue until it fits rather than being overtaken forever.
func (s *Server) dispatch() {
	defer close(s.dispatchDone)
	for {
		j, ok := s.queue.peek()
		if !ok {
			return
		}
		// Reserve cores while the job is still the counted head of the
		// queue, so a core-starved head keeps admission control honest.
		// Drain marks the server draining before it closes the budget, so
		// a running job can free its cores in between: a head admitted
		// then hands them back and is discarded with the rest.
		admitted := !s.draining.Load() && s.budget.acquire(j.cfg.Workers)
		if admitted && s.draining.Load() {
			s.budget.release(j.cfg.Workers)
			admitted = false
		}
		s.queue.removeHead()
		if !admitted {
			now := time.Now()
			j.discard(now)
			s.met.onDiscard()
			for _, wj := range s.takeWaiters(j) {
				wj.discard(now)
				s.met.onDiscard()
			}
			continue
		}
		s.running.Add(1)
		go s.runJob(j)
	}
}

// runJob executes one admitted job: bound the run with the job's deadline
// under the server's base context, dispatch through the engine registry on
// the job's own parsed circuit, and fold the outcome into the journal, the
// metrics, the result cache and, last, the job record: a client that sees
// the job done finds its result cached and counted.
func (s *Server) runJob(j *job) {
	defer s.running.Done()
	defer s.budget.release(j.cfg.Workers)
	start := time.Now()
	s.met.onStart(start.Sub(j.submitted))
	j.setRunning(start)
	s.logJournal(journalRecord{Type: recStarted, Job: j.id})
	s.runningJobs.Add(1)
	defer s.runningJobs.Add(-1)

	ctx := s.baseCtx
	if j.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, j.deadline)
		defer cancel()
	}
	cfg := j.cfg
	// Durable jobs on checkpoint-capable engines snapshot periodically —
	// and once more at the stop boundary if the run is cancelled — so a
	// crashed or drained daemon resumes them instead of replaying from
	// t=0. The journal records each snapshot as it reaches disk.
	if s.jnl != nil && engine.SupportsCheckpoint(j.cfg.Engine) {
		cfg.Checkpoint = engine.CheckpointSpec{
			Path:       s.ckptPath(j.id),
			EverySteps: s.cfg.CheckpointEvery,
			OnSave: func(step int64) {
				s.logJournal(journalRecord{Type: recCheckpointed, Job: j.id, Step: step})
			},
		}
	}
	rep, err := engine.Run(ctx, j.circ, cfg)
	if j.rec == nil {
		j.circ = nil // only the VCD endpoint reads it after the run
	}

	end := time.Now()
	serverCancelled := s.baseCtx.Err() != nil && errors.Is(err, context.Canceled)
	result := encodeResult(j.id, rep)
	state := terminalState(err, serverCancelled)
	s.logTerminal(j, state, result, err)
	var tot stats.WorkerCounters
	degraded := false
	if rep != nil {
		tot = rep.Stats.Totals()
		degraded = rep.Degraded
		if rep.Selected != nil {
			s.met.onAutoSelect(rep.Selected.Engine)
		}
	}
	s.met.onFinish(j.cfg.Engine, state, degraded, end.Sub(start), tot)
	// Cache the result, release the in-flight slot, and only then publish
	// the state: no identical submission sees neither, and none made after
	// the job reads done coalesces onto it. shared is the result as a
	// submission that never simulated sees it.
	shared := result
	if j.key != "" && s.dedup != nil {
		if rep != nil && rep.Resumed {
			shared = encodeResult(j.id, stripResumed(rep))
		}
		if state == jobDone && shared != nil {
			s.dedup.Put(j.key, shared)
		}
	}
	waiters := s.takeWaiters(j)
	j.finish(result, err, end, state)
	for _, wj := range waiters {
		wj.setRunning(end)
		s.logTerminal(wj, state, shared, err)
		s.met.onFinish(wj.cfg.Engine, state, false, 0, stats.WorkerCounters{})
		wj.finish(shared, err, end, state)
	}
}

// encodeResult renders a finished run's report once; the job record, the
// journal, the dedup cache and every poll then serve these bytes.
func encodeResult(id string, rep *engine.Report) json.RawMessage {
	if rep == nil {
		return nil
	}
	b, err := json.Marshal(rep)
	if err != nil {
		log.Printf("parsimd: job %s: encoding result: %v", id, err)
		return nil
	}
	return b
}

// logTerminal journals how a job ended.
func (s *Server) logTerminal(j *job, state jobState, result json.RawMessage, runErr error) {
	switch state {
	case jobDone:
		s.logJournal(journalRecord{Type: recDone, Job: j.id, Result: result})
	case jobCancelled:
		// Shutdown-cancelled: deliberately no terminal record. The job
		// stays in-flight in the journal, so the next startup re-queues
		// it and resumes from the final snapshot the cancel wrote —
		// a drain interrupts the work, it doesn't lose it.
	default:
		s.logJournal(journalRecord{Type: recFailed, Job: j.id, Error: runErr.Error()})
	}
}

// stripResumed returns rep as the result of a dedup hit: Resumed is
// provenance of the producing run (it came back from a snapshot), not of
// a submission that never simulated at all, so a served copy clears it.
// Shallow copy — the shared Final/Stats payloads are read-only by then.
func stripResumed(rep *engine.Report) *engine.Report {
	cp := *rep
	cp.Resumed = false
	return &cp
}

// takeWaiters atomically releases a primary's in-flight registration and
// claims its waiter list. A job that was never the registered primary for
// its key (dedup off, keyless, or a recovered duplicate) takes nothing.
func (s *Server) takeWaiters(j *job) []*job {
	if j.key == "" || s.dedup == nil {
		return nil
	}
	s.dedupMu.Lock()
	defer s.dedupMu.Unlock()
	if s.inflight[j.key] != j {
		return nil
	}
	delete(s.inflight, j.key)
	ws := s.waiters[j.key]
	delete(s.waiters, j.key)
	return ws
}

// Drain gracefully shuts the service down: refuse new submissions,
// discard the queued backlog, and wait for running jobs. If ctx expires
// first the base context is cancelled, which stops every engine within
// one scheduling quantum; Drain still waits for the (now aborted) jobs
// to record their partial results before returning ctx.Err().
func (s *Server) Drain(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		s.queue.close()
		s.budget.close()
	}
	<-s.dispatchDone
	done := make(chan struct{})
	go func() {
		s.running.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.baseCancel()
		<-done
		err = ctx.Err()
	}
	// Every job goroutine has returned; no more appends are coming.
	if s.jnl != nil {
		if cerr := s.jnl.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

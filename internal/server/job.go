package server

import (
	"encoding/json"
	"sync"
	"time"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/trace"
)

// jobState is the lifecycle of a submitted job. A job moves strictly
// queued -> running -> one of the terminal states; cancelled is reached
// from queued (drain discards the backlog) or from running (forced
// shutdown cancels the base context).
type jobState string

const (
	jobQueued    jobState = "queued"
	jobRunning   jobState = "running"
	jobDone      jobState = "done"
	jobFailed    jobState = "failed"
	jobCancelled jobState = "cancelled"
)

// job is one admitted simulation run. The immutable submission fields are
// written once by the submit handler before the job becomes visible to the
// dispatcher; the mutable lifecycle fields below mu are shared between the
// runner goroutine and status requests.
type job struct {
	id string
	// circ is the job's own parsed circuit, which its one run simulates
	// directly. It is nil on a job that will never run (a remembered body
	// served by dedup) and released when the run ends, unless a watch
	// recording still needs the node names.
	circ     *circuit.Circuit
	circName string
	// cfg is the run configuration admission resolved from the
	// submission: Engine is the canonical engine name, and Workers is
	// also the core count reserved from the budget. ResumeFrom names the
	// snapshot the job continues from (empty = from scratch), set at
	// admission when a fleet requeue passes a dead sibling's snapshot via
	// resume_from, or during startup recovery from this node's own
	// journal. runJob adds only the checkpoint spec.
	cfg      engine.Config
	deadline time.Duration    // per-job wall-clock budget (0 = none)
	watch    []circuit.NodeID // nodes recorded for the /vcd endpoint
	rec      *trace.Recorder  // cfg.Probe; nil unless watch nodes were requested
	// key is the content-addressed job key when dedup is enabled (empty
	// for watch jobs and when Config.DedupCache is 0).
	key string

	mu        sync.Mutex
	state     jobState
	submitted time.Time
	started   time.Time
	finished  time.Time
	result    json.RawMessage // the encoded run report, shared read-only
	errMsg    string
}

// jobView is the JSON shape of a job served by GET /v1/jobs/{id} and as
// the body of the 202 submission response.
type jobView struct {
	ID       string   `json:"id"`
	State    jobState `json:"state"`
	Engine   string   `json:"engine"`
	Circuit  string   `json:"circuit"`
	Workers  int      `json:"workers"`
	Horizon  int64    `json:"horizon"`
	QueuedMS int64    `json:"queued_ms"`        // time spent waiting for cores
	RunMS    int64    `json:"run_ms,omitempty"` // wall time of the run itself
	Error    string   `json:"error,omitempty"`  // terminal failure message
	// Result is present once the job finished; a job recovered from the
	// journal serves the result it finished with before the restart.
	Result json.RawMessage `json:"result,omitempty"`
}

// view snapshots the job for serialisation.
func (j *job) view(now time.Time) jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID:      j.id,
		State:   j.state,
		Engine:  j.cfg.Engine,
		Circuit: j.circName,
		Workers: j.cfg.Workers,
		Horizon: int64(j.cfg.Horizon),
		Error:   j.errMsg,
	}
	switch j.state {
	case jobQueued:
		v.QueuedMS = now.Sub(j.submitted).Milliseconds()
	case jobRunning:
		v.QueuedMS = j.started.Sub(j.submitted).Milliseconds()
		v.RunMS = now.Sub(j.started).Milliseconds()
	default:
		v.QueuedMS = j.started.Sub(j.submitted).Milliseconds()
		v.RunMS = j.finished.Sub(j.started).Milliseconds()
		v.Result = j.result
	}
	return v
}

// snapshot returns the state plus whether the job carries a VCD-servable
// recording (terminal state with watched nodes).
func (j *job) snapshot() (jobState, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	terminal := j.state == jobDone || j.state == jobFailed || j.state == jobCancelled
	return j.state, terminal && j.rec != nil
}

func (j *job) setRunning(t time.Time) {
	j.mu.Lock()
	j.state = jobRunning
	j.started = t
	j.mu.Unlock()
}

// terminalState is the state a run outcome ends a job in: done on success,
// cancelled when the server shut the run down, failed otherwise (deadline,
// stall, fault, bad config).
func terminalState(err error, serverCancelled bool) jobState {
	switch {
	case err == nil:
		return jobDone
	case serverCancelled:
		return jobCancelled
	default:
		return jobFailed
	}
}

// finish publishes the run outcome in the terminal state terminalState
// chose for it; a client that polls the job sees that state from here on.
// A partial result — the engines return one on cancellation — is kept
// either way.
func (j *job) finish(res json.RawMessage, err error, t time.Time, state jobState) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = t
	j.result = res
	j.state = state
	switch state {
	case jobCancelled:
		j.errMsg = "cancelled by server shutdown: " + err.Error()
	case jobFailed:
		j.errMsg = err.Error()
	}
}

// discard marks a never-run job cancelled (queue drained at shutdown).
func (j *job) discard(t time.Time) {
	j.mu.Lock()
	j.state = jobCancelled
	j.started = t
	j.finished = t
	j.errMsg = "cancelled before running: server shutting down"
	j.mu.Unlock()
}

// jobStore is the id -> job index behind the status endpoints. Jobs are
// never evicted: the daemon serves finite benchmark workloads, and the
// store doubles as the run log /v1/jobs lists.
type jobStore struct {
	mu    sync.RWMutex
	byID  map[string]*job
	order []*job // insertion order, for stable listings
}

func newJobStore() *jobStore {
	return &jobStore{byID: make(map[string]*job)}
}

func (s *jobStore) add(j *job) {
	s.mu.Lock()
	s.byID[j.id] = j
	s.order = append(s.order, j)
	s.mu.Unlock()
}

func (s *jobStore) get(id string) (*job, bool) {
	s.mu.RLock()
	j, ok := s.byID[id]
	s.mu.RUnlock()
	return j, ok
}

func (s *jobStore) all() []*job {
	s.mu.RLock()
	out := append([]*job(nil), s.order...)
	s.mu.RUnlock()
	return out
}

package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parsim/internal/checkpoint"
	"parsim/internal/netlist"
)

// Config sizes a Coordinator. The zero value of any field selects the
// default documented on it.
type Config struct {
	// HeartbeatEvery is the interval workers are told to heartbeat at and
	// the coordinator's own monitor cadence. Default 500ms.
	HeartbeatEvery time.Duration
	// EvictAfter is the silence after which a member is declared dead, its
	// vnodes leave the ring and its in-flight jobs are requeued. Default
	// 3 x HeartbeatEvery.
	EvictAfter time.Duration
	// VNodes is each member's virtual node count. Default DefaultVNodes.
	VNodes int
	// CacheEntries bounds the dedup result cache and the body memo. 0 (the
	// default) disables dedup entirely, as on a node: no result cache, no
	// body memo and no coalescing onto an identical in-flight job.
	CacheEntries int
	// MaxBodyBytes caps submission bodies, mirroring the worker default.
	// Default 8 MiB.
	MaxBodyBytes int64
	// MaxNodes and MaxElems cap the parsed circuit during keying; they
	// should not exceed the workers' own limits. Default 200000 each.
	MaxNodes, MaxElems int
	// RetryAfter is the hint on fleet-full 429 responses. Default 1s.
	RetryAfter time.Duration
	// MaxRequeues caps how many times one job is re-dispatched after node
	// evictions before it is failed. Default 3.
	MaxRequeues int
	// Client performs worker HTTP calls. Default: 15s-timeout client.
	Client *http.Client
	// Logf receives operational log lines (evictions, requeues). Default
	// discards them.
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 500 * time.Millisecond
	}
	if c.EvictAfter <= 0 {
		c.EvictAfter = 3 * c.HeartbeatEvery
	}
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
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
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxRequeues <= 0 {
		c.MaxRequeues = 3
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 15 * time.Second}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// member is one registered worker, guarded by Coordinator.mu. Its state
// dir outlives it in Coordinator.stateDirs, where requeue looks it up.
type member struct {
	addr     string // advertised host:port (or URL)
	lastBeat time.Time
	gauges   NodeGauges
}

// NodeGauges is the capacity snapshot a worker advertises on join and on
// every heartbeat — the same numbers the S26 scheduler exports on the
// worker's own /metrics page.
type NodeGauges struct {
	QueueDepth int `json:"queue_depth"`
	Running    int `json:"jobs_running"`
	CoresInUse int `json:"cores_in_use"`
	CoreBudget int `json:"core_budget"`
}

// clusterJob is the coordinator's record of one routed submission.
type clusterJob struct {
	id   string
	key  string
	body []byte // original submission body, forwarded verbatim
	// dedupable is false for watch jobs, whose VCD state is node-local, and
	// for every job when dedup is off; only a dedupable result is cached.
	dedupable bool

	mu        sync.Mutex
	node      string // owning worker addr ("" = parked, awaiting capacity)
	nodeJobID string // job id on the owning worker
	state     string // last observed worker state
	requeues  int    // re-dispatches consumed after evictions
	recorded  bool   // terminal state already counted (and cached)
	lastView  map[string]any
	deduped   bool
	// pending is true while the submission handler's initial dispatch is
	// still in flight. The job is registered (so identical submissions
	// coalesce onto it) but node is still "", and the monitor must not
	// mistake it for a parked job and dispatch a duplicate.
	pending bool
}

func (cj *clusterJob) terminal() bool {
	return cj.state == "done" || cj.state == "failed" || cj.state == "cancelled"
}

// Coordinator is the fleet front door: it owns the membership ring, the
// dedup cache and the job records, and proxies the worker job API so
// clients talk to one address regardless of fleet size. Create with
// NewCoordinator, serve via Handler, stop with Close.
type Coordinator struct {
	cfg   Config
	mux   *http.ServeMux
	ring  *Ring
	cache *ResultCache
	// memo maps the SHA-256 of a raw dedupable submission body to its job
	// key, so a verbatim resubmission is routed without being parsed here.
	memo   *ResultCache
	met    *fleetMetrics
	nextID atomic.Int64

	mu        sync.Mutex
	nodes     map[string]*member
	stateDirs map[string]string // every addr ever seen -> its state dir
	jobs      map[string]*clusterJob
	order     []*clusterJob
	inflight  map[string]*clusterJob // job key -> live (non-terminal) record

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// NewCoordinator builds a Coordinator and starts its monitor loop.
func NewCoordinator(cfg Config) *Coordinator {
	cfg.withDefaults()
	c := &Coordinator{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		ring:      NewRing(cfg.VNodes),
		cache:     NewResultCache(cfg.CacheEntries),
		memo:      NewResultCache(cfg.CacheEntries),
		met:       newFleetMetrics(),
		nodes:     make(map[string]*member),
		stateDirs: make(map[string]string),
		jobs:      make(map[string]*clusterJob),
		inflight:  make(map[string]*clusterJob),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	c.mux.HandleFunc("POST /v1/cluster/join", c.handleJoin)
	c.mux.HandleFunc("POST /v1/cluster/heartbeat", c.handleHeartbeat)
	c.mux.HandleFunc("POST /v1/cluster/leave", c.handleLeave)
	c.mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	c.mux.HandleFunc("GET /v1/jobs", c.handleList)
	c.mux.HandleFunc("GET /v1/jobs/{id}", c.handleJob)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	go c.monitor()
	return c
}

// Handler returns the HTTP handler serving the fleet API.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.mux.ServeHTTP(w, r) }

// Close stops the monitor loop. It does not touch the workers: they keep
// draining their queues and can rejoin a new coordinator.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
}

// Members returns the live member addresses.
func (c *Coordinator) Members() []string { return c.ring.Members() }

func (c *Coordinator) limits() netlist.Limits {
	return netlist.Limits{
		MaxBytes: c.cfg.MaxBodyBytes,
		MaxNodes: c.cfg.MaxNodes,
		MaxElems: c.cfg.MaxElems,
	}
}

// baseURL normalises an advertised address into a URL prefix.
func baseURL(addr string) string {
	if strings.Contains(addr, "://") {
		return strings.TrimSuffix(addr, "/")
	}
	return "http://" + addr
}

// monitor is the failure-detector loop: every heartbeat interval it
// evicts members whose last beat is older than EvictAfter and requeues
// their in-flight jobs, then retries any parked jobs (routed nowhere
// because the whole fleet was full when their node died).
func (c *Coordinator) monitor() {
	defer close(c.done)
	ticker := time.NewTicker(c.cfg.HeartbeatEvery)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-ticker.C:
			c.tick(now)
		}
	}
}

func (c *Coordinator) tick(now time.Time) {
	var dead []string
	c.mu.Lock()
	for addr, m := range c.nodes {
		if now.Sub(m.lastBeat) > c.cfg.EvictAfter {
			delete(c.nodes, addr)
			dead = append(dead, addr)
		}
	}
	c.mu.Unlock()

	for _, addr := range dead {
		c.ring.Remove(addr)
		c.met.onEvict()
		c.cfg.Logf("cluster: evicting node %s (missed heartbeats)", addr)
	}

	// Requeue candidates: jobs owned by a just-evicted node, jobs owned by
	// any previously evicted node (routed there between ticks), and parked
	// jobs waiting for capacity.
	deadSet := make(map[string]bool, len(dead))
	for _, addr := range dead {
		deadSet[addr] = true
	}
	var victims []*clusterJob
	c.mu.Lock()
	for _, cj := range c.order {
		cj.mu.Lock()
		if !cj.terminal() && !cj.pending {
			owner := cj.node
			_, live := c.nodes[owner]
			if owner == "" || deadSet[owner] || !live {
				victims = append(victims, cj)
			}
		}
		cj.mu.Unlock()
	}
	c.mu.Unlock()

	for _, cj := range victims {
		c.requeue(cj)
	}
}

// requeue re-dispatches a job whose node died (or that was parked),
// resuming from the dead node's last snapshot when one is readable —
// state dirs are assumed reachable from the survivors (shared filesystem
// or single host), the common fleet deployment; when they are not, the
// load below fails and the job simply replays from t=0.
func (c *Coordinator) requeue(cj *clusterJob) {
	cj.mu.Lock()
	if cj.terminal() {
		cj.mu.Unlock()
		return
	}
	if cj.requeues >= c.cfg.MaxRequeues {
		attempts := cj.requeues
		cj.mu.Unlock()
		c.failJob(cj, fmt.Sprintf("requeue budget exhausted after %d attempts", attempts))
		return
	}
	deadNode, deadJobID := cj.node, cj.nodeJobID
	cj.node, cj.nodeJobID = "", ""
	cj.state = "queued"
	cj.mu.Unlock()

	resume := ""
	if deadNode != "" && deadJobID != "" {
		c.mu.Lock()
		stateDir := c.stateDirs[deadNode]
		c.mu.Unlock()
		if stateDir != "" {
			p := filepath.Join(stateDir, deadJobID+".ckpt")
			if _, err := checkpoint.Load(p); err == nil {
				resume = p
			}
		}
	}

	body := cj.body
	if resume != "" {
		if b, err := injectResume(cj.body, resume); err == nil {
			body = b
		}
	}

	rr := c.route(cj.key, body)
	switch {
	case rr.ok:
		cj.mu.Lock()
		cj.requeues++
		attempt := cj.requeues
		cj.node, cj.nodeJobID = rr.node, rr.nodeJobID
		cj.state = viewState(rr.view)
		cj.lastView = c.rewriteView(cj, rr.view)
		cj.mu.Unlock()
		c.met.onRequeue(resume != "")
		c.cfg.Logf("cluster: requeued job %s (attempt %d) from %s to %s (resume=%v)",
			cj.id, attempt, deadNode, rr.node, resume != "")
	case rr.status == http.StatusTooManyRequests || rr.status == http.StatusServiceUnavailable:
		// Fleet full or empty: stay parked, the next tick retries. Parking
		// does not consume requeue budget — the job did not dispatch.
	default:
		// Deterministic rejection (400/413): every node would refuse it.
		c.failJob(cj, fmt.Sprintf("requeue rejected with status %d: %s",
			rr.status, strings.TrimSpace(string(rr.errBody))))
	}
}

// failJob marks a job failed coordinator-side and releases its dedup slot.
func (c *Coordinator) failJob(cj *clusterJob, msg string) {
	cj.mu.Lock()
	cj.state = "failed"
	cj.node, cj.nodeJobID = "", ""
	view := map[string]any{
		"id":    cj.id,
		"state": "failed",
		"error": msg,
	}
	if cj.lastView != nil {
		for k, v := range cj.lastView {
			if _, ok := view[k]; !ok {
				view[k] = v
			}
		}
	}
	cj.lastView = view
	cj.mu.Unlock()
	c.met.onTerminal("failed")
	c.dropInflight(cj)
	c.cfg.Logf("cluster: job %s failed: %s", cj.id, msg)
}

func (c *Coordinator) dropInflight(cj *clusterJob) {
	c.mu.Lock()
	if c.inflight[cj.key] == cj {
		delete(c.inflight, cj.key)
	}
	c.mu.Unlock()
}

// injectResume adds a resume_from field to a submission body.
func injectResume(body []byte, path string) ([]byte, error) {
	sub, err := DecodeSubmission(body)
	if err != nil {
		return nil, err
	}
	sub.ResumeFrom = path
	return json.Marshal(sub)
}

// routeResult is the outcome of one dispatch walk over the ring.
type routeResult struct {
	ok        bool
	node      string
	nodeJobID string
	view      map[string]any
	status    int    // when !ok: status the client should see
	errBody   []byte // when !ok: worker error body (propagated for 4xx)
}

// route walks the key's ring successors and dispatches the body to the
// first node that admits it. A full (429) or draining (503) or
// unreachable node spills to the next successor; a deterministic
// rejection (400/413 — the same on every node) propagates immediately;
// exhausting the list is the fleet-full signal.
func (c *Coordinator) route(key string, body []byte) routeResult {
	members := c.ring.Successors(key, c.ring.Size())
	if len(members) == 0 {
		return routeResult{status: http.StatusServiceUnavailable,
			errBody: []byte("no workers joined the fleet")}
	}
	for i, addr := range members {
		resp, err := c.cfg.Client.Post(baseURL(addr)+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			c.cfg.Logf("cluster: dispatch to %s failed: %v", addr, err)
			continue
		}
		rb, _ := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			var view map[string]any
			if err := json.Unmarshal(rb, &view); err != nil {
				view = map[string]any{}
			}
			nodeJobID, _ := view["id"].(string)
			c.met.onRoute(addr, i)
			return routeResult{ok: true, node: addr, nodeJobID: nodeJobID, view: view}
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			continue // node full or draining: spill to the next successor
		default:
			return routeResult{status: resp.StatusCode, errBody: rb}
		}
	}
	return routeResult{status: http.StatusTooManyRequests,
		errBody: []byte(fmt.Sprintf("fleet full: all %d nodes refused the job; retry later", len(members)))}
}

// viewState extracts the worker-reported state from a job view.
func viewState(view map[string]any) string {
	if s, ok := view["state"].(string); ok {
		return s
	}
	return "queued"
}

// rewriteView returns a copy of a worker job view presented as this
// cluster job: the worker-local id is replaced and the owning node is
// annotated. Callers hold cj.mu.
func (c *Coordinator) rewriteView(cj *clusterJob, view map[string]any) map[string]any {
	out := make(map[string]any, len(view)+2)
	for k, v := range view {
		out[k] = v
	}
	out["id"] = cj.id
	if cj.node != "" {
		out["node"] = cj.node
	}
	if cj.deduped {
		out["deduped"] = true
		// Resumed is provenance of the run that produced the cached
		// result, not of a submission that never simulated.
		delete(out, "resumed")
	}
	return out
}

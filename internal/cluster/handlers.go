package cluster

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"parsim/internal/netlist"
)

// errorBody mirrors the worker's non-2xx response shape.
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

// reject refuses a submission, counting it by status and attaching the
// Retry-After hint on fleet-full responses.
func (c *Coordinator) reject(w http.ResponseWriter, status int, format string, args ...any) {
	c.met.onReject(status)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After",
			strconv.Itoa(int((c.cfg.RetryAfter+time.Second-1)/time.Second)))
	}
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// handleSubmit is POST /v1/jobs on the coordinator: key the submission,
// serve dedup hits from the cache or coalesce onto an identical in-flight
// job, otherwise route to the ring owner with spill-on-full.
func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			c.reject(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", c.cfg.MaxBodyBytes)
			return
		}
		c.reject(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	key, dedupable, err := c.keyFor(body)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, netlist.ErrLimit) {
			status = http.StatusRequestEntityTooLarge
		}
		c.reject(w, status, "%v", err)
		return
	}

	if dedupable {
		if v, ok := c.cache.Get(key); ok {
			cached := v.(map[string]any) // the terminal view of the run that produced it
			cj := c.newJob(key, body, dedupable)
			cj.deduped = true
			cj.pending = false
			cj.state = viewState(cached)
			cj.lastView = c.rewriteView(cj, cached)
			c.registerJob(cj, false)
			c.met.onSubmit()
			c.met.onDedup(true)
			c.met.onTerminal(cj.state)
			writeJSON(w, http.StatusOK, cj.lastView)
			return
		}
	}

	cj := c.newJob(key, body, dedupable)
	if prior := c.registerJob(cj, dedupable); prior != nil {
		// An identical job is already in flight: coalesce instead of
		// re-simulating; the caller polls the existing record.
		c.met.onSubmit()
		c.met.onDedup(false)
		prior.mu.Lock()
		view := prior.lastView
		if view == nil {
			view = map[string]any{"id": prior.id, "state": prior.state}
		}
		prior.mu.Unlock()
		writeJSON(w, http.StatusAccepted, view)
		return
	}

	rr := c.route(key, body)
	if !rr.ok {
		c.removeJob(cj)
		if rr.status == http.StatusTooManyRequests {
			c.met.onFleetFull()
		}
		c.reject(w, rr.status, "%s", rr.errBody)
		return
	}
	cj.mu.Lock()
	cj.pending = false
	cj.node, cj.nodeJobID = rr.node, rr.nodeJobID
	cj.state = viewState(rr.view)
	cj.lastView = c.rewriteView(cj, rr.view)
	view := cj.lastView
	cj.mu.Unlock()
	c.met.onSubmit()
	w.Header().Set("Location", "/v1/jobs/"+cj.id)
	writeJSON(w, http.StatusAccepted, view)
}

// keyFor returns a submission's job key, which routes it, and whether it
// may be deduped: not with dedup off, and never a watch job, whose VCD
// state is node-local, so it never satisfies a later identical submission.
// A dedupable body is keyed in full once; after that its bytes alone name
// its key, and only the worker it is routed to parses it.
func (c *Coordinator) keyFor(body []byte) (key string, dedupable bool, err error) {
	sum := sha256.Sum256(body)
	digest := string(sum[:])
	if v, ok := c.memo.Get(digest); ok {
		return v.(string), true, nil
	}
	key, sub, err := SubmissionKey(body, c.limits())
	if err != nil {
		return "", false, err
	}
	if len(sub.Watch) > 0 || c.cfg.CacheEntries <= 0 {
		return key, false, nil
	}
	c.memo.Put(digest, key)
	return key, true, nil
}

// newJob allocates a cluster job record (not yet registered).
func (c *Coordinator) newJob(key string, body []byte, dedupable bool) *clusterJob {
	return &clusterJob{
		id:        fmt.Sprintf("c-%06d", c.nextID.Add(1)),
		key:       key,
		body:      body,
		dedupable: dedupable,
		state:     "queued",
		pending:   true,
	}
}

// registerJob publishes a record. When dedupable it first checks the
// in-flight index under the same lock — if an identical live job exists
// the new record is discarded and the prior one returned, so two racing
// identical submissions can never both dispatch.
func (c *Coordinator) registerJob(cj *clusterJob, dedupable bool) (prior *clusterJob) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if dedupable {
		if prior := c.inflight[cj.key]; prior != nil {
			return prior
		}
		c.inflight[cj.key] = cj
	}
	c.jobs[cj.id] = cj
	c.order = append(c.order, cj)
	return nil
}

// removeJob retracts a record that was never dispatched (routing refused
// it), so a rejected submission leaves no trace in the job list.
func (c *Coordinator) removeJob(cj *clusterJob) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.jobs, cj.id)
	if c.inflight[cj.key] == cj {
		delete(c.inflight, cj.key)
	}
	for i, other := range c.order {
		if other == cj {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}

// handleJob is GET /v1/jobs/{id}: proxy the owning worker's view of the
// job under the cluster job id, recording terminal states as they are
// first observed (that is also the moment a result enters the dedup
// cache). A terminal or parked job is served from the coordinator's own
// record; an unreachable owner serves the last known view — the monitor
// loop will evict the node and requeue shortly.
func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	cj, ok := c.jobs[r.PathValue("id")]
	c.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	cj.mu.Lock()
	node, nodeJobID := cj.node, cj.nodeJobID
	terminal := cj.terminal()
	last := cj.lastView
	cj.mu.Unlock()

	if terminal {
		writeJSON(w, http.StatusOK, last)
		return
	}
	if node == "" {
		// Parked: waiting for fleet capacity after its node died.
		view := map[string]any{"id": cj.id, "state": "queued"}
		writeJSON(w, http.StatusOK, view)
		return
	}
	view, err := c.pollWorker(cj, node, nodeJobID)
	if err != nil {
		c.cfg.Logf("cluster: poll of %s for job %s failed: %v", node, cj.id, err)
		if last == nil {
			last = map[string]any{"id": cj.id, "state": cj.state}
		}
		writeJSON(w, http.StatusOK, last)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// pollWorker fetches the owner's view of a job and folds it into the
// record; the first observation of a terminal state is counted and, for
// successful dedupable runs, cached.
func (c *Coordinator) pollWorker(cj *clusterJob, node, nodeJobID string) (map[string]any, error) {
	resp, err := c.cfg.Client.Get(baseURL(node) + "/v1/jobs/" + nodeJobID)
	if err != nil {
		return nil, err
	}
	rb, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("worker answered %d", resp.StatusCode)
	}
	var raw map[string]any
	if err := json.Unmarshal(rb, &raw); err != nil {
		return nil, err
	}
	st := viewState(raw)
	cj.mu.Lock()
	cj.state = st
	cj.lastView = c.rewriteView(cj, raw)
	view := cj.lastView
	firstTerminal := cj.terminal() && !cj.recorded
	if firstTerminal {
		cj.recorded = true
	}
	dedupable := cj.dedupable
	cj.mu.Unlock()
	if firstTerminal {
		c.met.onTerminal(st)
		c.dropInflight(cj)
		if st == "done" && dedupable {
			c.cache.Put(cj.key, view)
		}
	}
	return view, nil
}

// handleList is GET /v1/jobs: the coordinator's job records, oldest
// first, each under its cluster id with its last observed state.
func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	records := append([]*clusterJob(nil), c.order...)
	c.mu.Unlock()
	views := make([]map[string]any, 0, len(records))
	for _, cj := range records {
		cj.mu.Lock()
		view := cj.lastView
		if view == nil {
			view = map[string]any{"id": cj.id, "state": cj.state}
		}
		cj.mu.Unlock()
		views = append(views, view)
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []map[string]any `json:"jobs"`
	}{Jobs: views})
}

// joinRequest is the body of POST /v1/cluster/join: a worker advertising
// itself and its capacity.
type joinRequest struct {
	Addr     string     `json:"addr"`
	Cores    int        `json:"cores"`
	MaxQueue int        `json:"max_queue"`
	StateDir string     `json:"state_dir,omitempty"`
	Gauges   NodeGauges `json:"gauges"`
}

// joinResponse tells the worker the heartbeat contract.
type joinResponse struct {
	HeartbeatMS int64 `json:"heartbeat_ms"`
	Nodes       int   `json:"nodes"`
}

// handleJoin is POST /v1/cluster/join. Joining is idempotent: a worker
// that lost contact (or was evicted) rejoins with the same body and its
// vnodes return to the ring.
func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("malformed join body: %v", err)})
		return
	}
	if req.Addr == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "join requires a non-empty addr"})
		return
	}
	c.mu.Lock()
	c.nodes[req.Addr] = &member{
		addr:     req.Addr,
		lastBeat: time.Now(),
		gauges:   req.Gauges,
	}
	if req.StateDir != "" {
		c.stateDirs[req.Addr] = req.StateDir
	}
	n := len(c.nodes)
	c.mu.Unlock()
	if c.ring.Add(req.Addr) {
		c.met.onMembership()
		c.cfg.Logf("cluster: node %s joined (%d cores, queue %d); fleet size %d",
			req.Addr, req.Cores, req.MaxQueue, n)
	}
	writeJSON(w, http.StatusOK, joinResponse{
		HeartbeatMS: c.cfg.HeartbeatEvery.Milliseconds(),
		Nodes:       n,
	})
}

// heartbeatRequest is the body of POST /v1/cluster/heartbeat.
type heartbeatRequest struct {
	Addr   string     `json:"addr"`
	Gauges NodeGauges `json:"gauges"`
}

// handleHeartbeat is POST /v1/cluster/heartbeat. An unknown (or evicted)
// node is answered 404, which tells the worker to rejoin.
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("malformed heartbeat body: %v", err)})
		return
	}
	c.mu.Lock()
	m, ok := c.nodes[req.Addr]
	if ok {
		m.lastBeat = time.Now()
		m.gauges = req.Gauges
	}
	c.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown node; rejoin"})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		OK bool `json:"ok"`
	}{true})
}

// handleLeave is POST /v1/cluster/leave: a graceful departure. The
// node's vnodes leave the ring immediately; jobs still running there keep
// their owner (a draining worker finishes its running jobs), and if the
// worker dies instead the monitor requeues them.
func (c *Coordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("malformed leave body: %v", err)})
		return
	}
	c.mu.Lock()
	_, ok := c.nodes[req.Addr]
	delete(c.nodes, req.Addr)
	c.mu.Unlock()
	if ok && c.ring.Remove(req.Addr) {
		c.met.onMembership()
		c.cfg.Logf("cluster: node %s left", req.Addr)
	}
	writeJSON(w, http.StatusOK, struct {
		OK bool `json:"ok"`
	}{true})
}

// handleHealthz is GET /healthz on the coordinator.
func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	nodes := len(c.nodes)
	inflight := len(c.inflight)
	jobs := len(c.jobs)
	c.mu.Unlock()
	status := http.StatusOK
	body := struct {
		Status   string `json:"status"`
		Nodes    int    `json:"nodes"`
		Jobs     int    `json:"jobs"`
		Inflight int    `json:"jobs_inflight"`
	}{"ok", nodes, jobs, inflight}
	if nodes == 0 {
		body.Status = "no-workers"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

// handleMetrics is GET /metrics: fleet counters plus per-node gauges from
// the latest heartbeats.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	c.mu.Lock()
	rows := make([]nodeRow, 0, len(c.nodes))
	for _, m := range c.nodes {
		rows = append(rows, nodeRow{
			addr:       m.addr,
			beatAgeSec: now.Sub(m.lastBeat).Seconds(),
			gauges:     m.gauges,
		})
	}
	c.mu.Unlock()
	sortNodeRows(rows)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	c.met.render(w, rows)
}

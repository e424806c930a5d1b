package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"regexp"
	"strconv"
	"time"

	"parsim/internal/cluster"
	"parsim/internal/server"
)

// pollEvery is how long a client waits between two status polls.
const pollEvery = 2 * time.Millisecond

// daemon is an in-process parsimd behind a real loopback listener.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	served chan struct{} // closed when the HTTP server's accept loop has returned
	url    string
	client *http.Client
}

func startDaemon() (*daemon, error) {
	srv, err := server.New(server.Config{DedupCache: 256, CoreBudget: 2})
	if err != nil {
		return nil, fmt.Errorf("boot daemon: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("boot daemon: %w", err)
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
	}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln) // returns ErrServerClosed from stop
	}()
	return d, nil
}

// stop drains the job queue, shuts the listener down and waits for the
// accept loop to return.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.srv.Drain(ctx)
	d.hs.Shutdown(ctx)
	<-d.served
	d.client.CloseIdleConnections()
}

// daemonLifetime is how many rounds one daemon serves. parsimd keeps every
// job it has run, with its parsed circuit and result, so its heap grows by
// about 2 MB a job; replacing it between rounds keeps a run's memory, and
// with it the collector's share of every job, level from start to end.
const daemonLifetime = 16

// recycleDaemon replaces the daemon with a fresh one and resubmits the hit
// kinds' bodies, so that the next round finds them in the dedup cache as
// every round before it did. The results are not checked here: a daemon
// that mishandles them fails the next round's checks.
func (s *session) recycleDaemon() error {
	ctr, err := s.daemon.counters()
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	for name, n := range ctr {
		s.retired[name] += n
	}
	s.daemon.stop()
	d, err := startDaemon()
	if err != nil {
		return err
	}
	s.daemon, s.daemonRounds = d, 0
	for _, k := range s.w.kinds {
		if k.hit {
			d.runJob(s.submission(k), nil, "")
			s.retired["parsimd_jobs_submitted_total"]-- // not a job of any round
		}
	}
	return nil
}

// counters sums the daemon's counters over every daemon the session has
// run, so that a figure taken from them does not depend on how long ago the
// daemon was last replaced.
func (s *session) counters() (map[string]float64, error) {
	ctr, err := s.daemon.counters()
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	for name, n := range s.retired {
		ctr[name] += n
	}
	return ctr, nil
}

// jobView is the part of the daemon's job document a client reads while
// polling; the result stays raw until the round's timed window has closed.
type jobView struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	QueuedMS int64           `json:"queued_ms"`
	RunMS    int64           `json:"run_ms"`
	Error    string          `json:"error"`
	Result   json.RawMessage `json:"result"`
}

func (v *jobView) terminal() bool {
	return v.State == "done" || v.State == "failed" || v.State == "cancelled"
}

func (d *daemon) do(method, path string, body []byte) (*jobView, error) {
	req, err := http.NewRequest(method, d.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	var v jobView
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return &v, nil
}

// runJob submits one body and polls until the job is terminal: the closed
// loop of one client. Latency runs from the POST being sent to the first
// poll that reads a terminal state.
func (d *daemon) runJob(body []byte, tr *tracer, detail string) outcome {
	o := outcome{start: time.Now()}
	v, err := d.do("POST", "/v1/jobs", body)
	o.postEnd = time.Now()
	for err == nil && !v.terminal() {
		time.Sleep(pollEvery)
		o.polls++
		v, err = d.do("GET", "/v1/jobs/"+v.ID, nil)
	}
	o.end = time.Now()
	if tr != nil {
		job := tr.newJob()
		root := tr.add(0, job, "job", o.start, o.end, nil)
		tr.detail(root, detail)
		tr.add(root, job, "post", o.start, o.postEnd, nil)
		wait := map[string]float64{"polls": float64(o.polls)}
		if err == nil {
			wait["server_queued_ms"], wait["server_run_ms"] = float64(v.QueuedMS), float64(v.RunMS)
		}
		tr.add(root, job, "poll_wait", o.postEnd, o.end, wait)
	}
	if err == nil && v.State != "done" {
		err = fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
	}
	if err != nil {
		o.err = err
		return o
	}
	o.queuedMS, o.runMS, o.rawResult = v.QueuedMS, v.RunMS, v.Result
	return o
}

// submissions prepares, before the round's clock starts, the body of every
// job the clients will post. A miss kind gets a circuit name no earlier
// submission had, so the content-addressed key misses the dedup cache and
// the daemon does all of its work; a hit kind resubmits one fixed body.
func (s *session) submissions(orders [][]int) [][][]byte {
	bodies := make([][][]byte, len(orders))
	for c, order := range orders {
		for _, ki := range order {
			bodies[c] = append(bodies[c], s.submission(s.w.kinds[ki]))
		}
	}
	return bodies
}

func (s *session) submission(k kind) []byte {
	pc := s.circuits[k.circuit]
	name := pc.name
	if !k.hit {
		s.serial++
		name = fmt.Sprintf("%s-s%d-%d", pc.name, s.seed, s.serial)
	}
	body, err := json.Marshal(cluster.Submission{
		Netlist: pc.netlist(name),
		Engine:  k.engine,
		Workers: k.workers,
		Horizon: int64(pc.horizon),
		Lint:    "warn",
	})
	if err != nil {
		panic(err) // a struct of strings and integers always encodes
	}
	return body
}

var metricLine = regexp.MustCompile(`(?m)^(parsimd_[a-z_]+)(?:\{[^}]*\})? (\d+)$`)

// counters scrapes the daemon's /metrics and sums each counter over its
// labels.
func (d *daemon) counters() (map[string]float64, error) {
	resp, err := d.client.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, m := range metricLine.FindAllSubmatch(text, -1) {
		n, _ := strconv.ParseFloat(string(m[2]), 64) // the pattern admits digits only
		out[string(m[1])] += n
	}
	return out, nil
}

// Package cluster_test is the multi-node end-to-end suite: real server
// instances behind httptest listeners join a real coordinator, jobs flow
// through the ring, and a mid-run node kill exercises eviction, requeue
// and snapshot resume. Everything runs in-process — the fleet protocol
// is plain HTTP, so "three nodes" is three handlers on loopback.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parsim/internal/cluster"
	"parsim/internal/netlist"
	"parsim/internal/server" // also registers the engines
)

const fleetNetlist = `circuit ring
node clk 1
node a 1
node b 1
node q 1
elem clock osc delay=1 out=clk period=8
elem not n1 delay=1 out=a in=clk
elem not n2 delay=1 out=b in=a
elem not n3 delay=1 out=q in=b
`

// crashableTransport lets a test "kill" a node's heartbeats abruptly —
// the way a crashed process stops beating — without the graceful leave a
// context cancellation would send.
type crashableTransport struct{ dead *atomic.Bool }

func (ct crashableTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if ct.dead.Load() {
		return nil, errors.New("node crashed")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// fleetNode is one in-process worker: a full server.Server plus its
// membership joiner.
type fleetNode struct {
	srv      *server.Server
	ts       *httptest.Server
	addr     string
	stateDir string
	dead     *atomic.Bool
	joinStop context.CancelFunc
	joinDone chan struct{}
	killed   bool
}

type fleet struct {
	t       *testing.T
	coord   *cluster.Coordinator
	coordTS *httptest.Server
	nodes   []*fleetNode
}

// fleetOpts tune the test fleet away from its defaults.
type fleetOpts struct {
	coreBudget int           // per-node cores (default 2)
	maxQueue   int           // per-node admission queue (default 16)
	evictAfter time.Duration // coordinator failure-detector window (default 3x heartbeat)
	noDedup    bool          // coordinator dedup off (default on, 64 entries); nodes never dedup
}

// newFleet builds a coordinator and n durable worker nodes, waits until
// every node has joined, and registers teardown in the right order
// (joiners first, then the coordinator, then the workers) so no goroutine
// logs into a finished test.
func newFleet(t *testing.T, n int, opts fleetOpts) *fleet {
	t.Helper()
	if opts.coreBudget == 0 {
		opts.coreBudget = 2
	}
	if opts.maxQueue == 0 {
		opts.maxQueue = 16
	}
	cacheEntries := 64
	if opts.noDedup {
		cacheEntries = 0
	}
	root := t.TempDir()
	f := &fleet{t: t}
	f.coord = cluster.NewCoordinator(cluster.Config{
		HeartbeatEvery: 50 * time.Millisecond,
		EvictAfter:     opts.evictAfter,
		CacheEntries:   cacheEntries,
		Logf:           t.Logf,
	})
	f.coordTS = httptest.NewServer(f.coord.Handler())

	for i := 0; i < n; i++ {
		dir := filepath.Join(root, fmt.Sprintf("node%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{
			CoreBudget:      opts.coreBudget,
			MaxQueue:        opts.maxQueue,
			StateDir:        dir,
			CheckpointEvery: 50,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		node := &fleetNode{
			srv:      srv,
			ts:       ts,
			addr:     ts.Listener.Addr().String(),
			stateDir: dir,
			dead:     &atomic.Bool{},
			joinDone: make(chan struct{}),
		}
		ctx, cancel := context.WithCancel(context.Background())
		node.joinStop = cancel
		jn := &cluster.Joiner{
			Coordinator: f.coordTS.URL,
			Advertise:   node.addr,
			Cores:       opts.coreBudget,
			MaxQueue:    opts.maxQueue,
			StateDir:    dir,
			Gauges: func() cluster.NodeGauges {
				return cluster.NodeGauges{
					QueueDepth: srv.QueueDepth(),
					Running:    srv.RunningJobs(),
					CoresInUse: srv.CoresInUse(),
					CoreBudget: srv.CoreBudget(),
				}
			},
			Client: &http.Client{Timeout: 2 * time.Second, Transport: crashableTransport{dead: node.dead}},
			Logf:   t.Logf,
		}
		go func() {
			defer close(node.joinDone)
			jn.Run(ctx)
		}()
		f.nodes = append(f.nodes, node)
	}

	t.Cleanup(func() {
		for _, node := range f.nodes {
			node.joinStop()
			<-node.joinDone
		}
		f.coord.Close()
		f.coordTS.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, node := range f.nodes {
			if !node.killed {
				node.ts.Close()
				node.srv.Drain(ctx)
			}
		}
	})

	// Fleet ready: every node joined.
	deadline := time.Now().Add(10 * time.Second)
	for len(f.coord.Members()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d nodes joined: %v", len(f.coord.Members()), n, f.coord.Members())
		}
		time.Sleep(10 * time.Millisecond)
	}
	return f
}

// kill simulates an abrupt node death: heartbeats stop, the listener
// closes, and running jobs are cancelled — nothing leaves gracefully.
func (f *fleet) kill(node *fleetNode) {
	node.dead.Store(true)
	node.ts.Close()
	node.killed = true
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	node.srv.Drain(ctx)
}

// submit posts a job body to the coordinator and returns the status and
// decoded view (nil on non-JSON errors).
func (f *fleet) submit(t *testing.T, body map[string]any) (int, map[string]any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(f.coordTS.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view map[string]any
	json.NewDecoder(resp.Body).Decode(&view)
	return resp.StatusCode, view
}

// await polls a cluster job to a terminal state.
func (f *fleet) await(t *testing.T, id string, timeout time.Duration) map[string]any {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(f.coordTS.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var view map[string]any
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch view["state"] {
		case "done", "failed", "cancelled":
			return view
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return nil
}

func (f *fleet) metrics(t *testing.T) string {
	t.Helper()
	resp, err := http.Get(f.coordTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.String()
}

// jobBody builds a distinct submission by horizon.
func jobBody(engine string, horizon int64) map[string]any {
	return map[string]any{
		"netlist": fleetNetlist,
		"engine":  engine,
		"workers": 1,
		"horizon": horizon,
	}
}

// finalValues extracts result.Final from a terminal view.
func finalValues(t *testing.T, view map[string]any) []any {
	t.Helper()
	res, ok := view["result"].(map[string]any)
	if !ok {
		t.Fatalf("terminal view has no result: %v", view)
	}
	final, ok := res["final"].([]any)
	if !ok {
		t.Fatalf("result has no final values: %v", res)
	}
	return final
}

// TestFleetEndToEnd submits a batch of distinct jobs through a 3-node
// fleet, checks every result against a direct single-server run of the
// same body, then verifies an identical resubmission is a cache hit.
func TestFleetEndToEnd(t *testing.T) {
	f := newFleet(t, 3, fleetOpts{})

	// Reference: the same jobs on a plain standalone server.
	ref, err := server.New(server.Config{CoreBudget: 2, MaxQueue: 16})
	if err != nil {
		t.Fatal(err)
	}
	refTS := httptest.NewServer(ref.Handler())
	t.Cleanup(func() {
		refTS.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		ref.Drain(ctx)
	})

	const jobs = 9
	ids := make([]string, jobs)
	bodies := make([]map[string]any, jobs)
	for i := range ids {
		bodies[i] = jobBody("sequential", int64(64+8*i))
		status, view := f.submit(t, bodies[i])
		if status != http.StatusAccepted {
			t.Fatalf("job %d: submit status %d (%v)", i, status, view)
		}
		id, _ := view["id"].(string)
		if !strings.HasPrefix(id, "c-") {
			t.Fatalf("job %d: cluster id %q", i, id)
		}
		ids[i] = id
	}
	for i, id := range ids {
		view := f.await(t, id, 30*time.Second)
		if view["state"] != "done" {
			t.Fatalf("job %d: state %v (error %v)", i, view["state"], view["error"])
		}
		if _, ok := view["node"].(string); !ok {
			t.Errorf("job %d: done view has no owning node", i)
		}

		b, _ := json.Marshal(bodies[i])
		resp, err := http.Post(refTS.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		var refSub map[string]any
		json.NewDecoder(resp.Body).Decode(&refSub)
		resp.Body.Close()
		refID, _ := refSub["id"].(string)
		refView := awaitURL(t, refTS.URL, refID, 30*time.Second)
		if !reflect.DeepEqual(finalValues(t, view), finalValues(t, refView)) {
			t.Errorf("job %d: fleet final values diverge from direct run", i)
		}
	}

	// Identical resubmission: served from the coordinator's result cache
	// without touching a worker.
	status, view := f.submit(t, bodies[0])
	if status != http.StatusOK {
		t.Fatalf("dedup resubmission: status %d, want 200 (%v)", status, view)
	}
	if view["deduped"] != true {
		t.Fatalf("dedup resubmission not marked: %v", view)
	}
	if view["state"] != "done" {
		t.Fatalf("dedup resubmission state %v", view["state"])
	}
	if !reflect.DeepEqual(finalValues(t, view), finalValues(t, f.await(t, ids[0], time.Second))) {
		t.Error("deduped view diverges from the original result")
	}

	body := f.metrics(t)
	for _, want := range []string{
		"parsimd_fleet_nodes 3",
		`parsimd_fleet_dedup_hits_total{source="cache"} 1`,
		fmt.Sprintf("parsimd_fleet_jobs_submitted_total %d", jobs+1),
		`parsimd_fleet_jobs_total{state="done"} 10`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("fleet metrics missing %q\n%s", want, body)
		}
	}
	// Every routed job landed on a live member.
	for _, n := range f.nodes {
		if !strings.Contains(body, fmt.Sprintf("parsimd_fleet_node_core_budget{node=%q}", n.addr)) {
			t.Errorf("fleet metrics missing gauges for node %s", n.addr)
		}
	}
}

// TestFleetDedupOff pins the zero CacheEntries rule: like a node's
// -dedup 0, it turns dedup off on the coordinator — no cache hit and no
// coalescing, so two identical submissions are two simulations.
func TestFleetDedupOff(t *testing.T) {
	f := newFleet(t, 1, fleetOpts{noDedup: true})
	body := jobBody("sequential", 96)
	var ids []string
	for i := 0; i < 2; i++ {
		status, view := f.submit(t, body)
		if status != http.StatusAccepted || view["deduped"] != nil {
			t.Fatalf("submission %d: status %d, view %v; want a fresh 202", i, status, view)
		}
		ids = append(ids, view["id"].(string))
	}
	for _, id := range ids {
		if view := f.await(t, id, 30*time.Second); view["state"] != "done" || view["deduped"] != nil {
			t.Fatalf("job %s: %v", id, view)
		}
	}
	resp, err := http.Get(f.nodes[0].ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var node bytes.Buffer
	node.ReadFrom(resp.Body)
	if want := `parsimd_jobs_total{state="done"} 2`; !strings.Contains(node.String(), want) {
		t.Errorf("the node did not simulate both submissions: missing %q\n%s", want, node.String())
	}
	fleet := f.metrics(t)
	for _, want := range []string{
		`parsimd_fleet_dedup_hits_total{source="cache"} 0`,
		`parsimd_fleet_dedup_hits_total{source="inflight"} 0`,
	} {
		if !strings.Contains(fleet, want) {
			t.Errorf("fleet metrics missing %q\n%s", want, fleet)
		}
	}
}

// awaitURL polls a worker-style job endpoint directly.
func awaitURL(t *testing.T, base, id string, timeout time.Duration) map[string]any {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var view map[string]any
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch view["state"] {
		case "done", "failed", "cancelled":
			return view
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return nil
}

// TestFleetNodeKillRequeue is the headline failure drill: kill the node
// running a checkpointing job mid-run and verify the coordinator evicts
// it, requeues the job on a survivor with the dead node's last snapshot,
// and the job still completes — resumed, not restarted.
func TestFleetNodeKillRequeue(t *testing.T) {
	f := newFleet(t, 3, fleetOpts{})

	// Background traffic on a non-checkpointing engine, so the only .ckpt
	// files on disk belong to the victim job.
	quickIDs := make([]string, 4)
	for i := range quickIDs {
		status, view := f.submit(t, jobBody("event-driven", int64(64+8*i)))
		if status != http.StatusAccepted {
			t.Fatalf("quick job %d: status %d", i, status)
		}
		quickIDs[i], _ = view["id"].(string)
	}

	// The victim job: slow enough to die mid-run, checkpointing every 50
	// steps so a snapshot exists almost immediately.
	slow := jobBody("sequential", 200000)
	slow["cost_spin"] = 400
	status, view := f.submit(t, slow)
	if status != http.StatusAccepted {
		t.Fatalf("slow job: status %d (%v)", status, view)
	}
	slowID, _ := view["id"].(string)

	// Find its node, then wait for its first snapshot to land on disk.
	var victim *fleetNode
	deadline := time.Now().Add(10 * time.Second)
	for victim == nil {
		if time.Now().After(deadline) {
			t.Fatal("slow job never reported an owning node")
		}
		resp, err := http.Get(f.coordTS.URL + "/v1/jobs/" + slowID)
		if err != nil {
			t.Fatal(err)
		}
		var v map[string]any
		json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if addr, ok := v["node"].(string); ok {
			for _, n := range f.nodes {
				if n.addr == addr {
					victim = n
				}
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	deadline = time.Now().Add(15 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("victim node never wrote a checkpoint; is the slow job too fast?")
		}
		entries, err := os.ReadDir(victim.stateDir)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".ckpt") {
				found = true
			}
		}
		if found {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	f.kill(victim)
	t.Logf("killed node %s mid-run", victim.addr)

	// Zero job loss: the slow job and all quick jobs complete.
	final := f.await(t, slowID, 120*time.Second)
	if final["state"] != "done" {
		t.Fatalf("slow job after node kill: state %v (error %v)", final["state"], final["error"])
	}
	res, _ := final["result"].(map[string]any)
	if res == nil {
		t.Fatal("slow job finished without a result")
	}
	if res["resumed"] != true {
		t.Errorf("requeued job replayed from t=0; want a snapshot resume (resumed=true)")
	}
	if node, _ := final["node"].(string); node == victim.addr {
		t.Errorf("job finished on the killed node %s", node)
	}
	for i, id := range quickIDs {
		if v := f.await(t, id, 60*time.Second); v["state"] != "done" {
			t.Errorf("quick job %d lost to the node kill: state %v (error %v)", i, v["state"], v["error"])
		}
	}

	body := f.metrics(t)
	for _, want := range []string{
		"parsimd_fleet_nodes 2",
		"parsimd_fleet_evictions_total 1",
		"parsimd_fleet_requeues_resumed_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("fleet metrics missing %q\n%s", want, body)
		}
	}
	if strings.Contains(body, `parsimd_fleet_jobs_total{state="failed"}`) {
		t.Errorf("fleet reported failed jobs\n%s", body)
	}
}

// TestFleetBackpressure saturates a 2-node fleet whose nodes have tiny
// queues with slow jobs: submissions must spill between nodes while any
// capacity remains and only answer 429 + Retry-After once the whole
// fleet is full. Draining the backlog restores admission. The long
// evictAfter keeps the failure detector out of a test that saturates
// the CPU on purpose.
func TestFleetBackpressure(t *testing.T) {
	f := newFleet(t, 2, fleetOpts{coreBudget: 1, maxQueue: 2, evictAfter: 5 * time.Second})

	// Each node admits ~3 jobs (1 running + 2 queued) of ~650ms each, so
	// 16 near-instant submissions overrun the whole fleet well before the
	// first job drains. Distinct horizons so nothing dedups or coalesces.
	var accepted []string
	reject429 := 0
	for i := 0; i < 16; i++ {
		b := jobBody("sequential", int64(200000+i))
		b["cost_spin"] = 2000
		status, view := f.submit(t, b)
		switch status {
		case http.StatusAccepted:
			id, _ := view["id"].(string)
			accepted = append(accepted, id)
		case http.StatusTooManyRequests:
			reject429++
		default:
			t.Fatalf("submission %d: unexpected status %d (%v)", i, status, view)
		}
	}
	if reject429 == 0 {
		t.Fatal("16 slow submissions against ~6 fleet slots never hit fleet-full")
	}
	if len(accepted) < 4 {
		t.Fatalf("only %d submissions admitted; spill-on-full is not spreading load", len(accepted))
	}
	t.Logf("accepted %d, fleet-full rejections %d", len(accepted), reject429)

	// The 429 carried Retry-After.
	b, _ := json.Marshal(jobBody("sequential", 99999))
	resp, err := http.Post(f.coordTS.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
		t.Error("fleet-full 429 without Retry-After")
	}

	// Everything admitted completes; nothing is lost to the saturation.
	for i, id := range accepted {
		if v := f.await(t, id, 180*time.Second); v["state"] != "done" {
			t.Fatalf("accepted job %d: state %v (error %v)", i, v["state"], v["error"])
		}
	}

	body := f.metrics(t)
	if !strings.Contains(body, "parsimd_fleet_full_total") || strings.Contains(body, "parsimd_fleet_full_total 0\n") {
		t.Errorf("fleet-full counter did not move\n%s", body)
	}
	// Whether any individual job spilled here depends on drain timing —
	// TestFleetSpill pins the spill path deterministically.
}

// TestFleetSpill proves node-full ⇒ spill: the probe job's ring owner is
// computed client-side (the ring construction is deterministic), that
// node is saturated by direct submissions until it 429s, and the probe —
// submitted through the coordinator — must then land on the other node.
func TestFleetSpill(t *testing.T) {
	f := newFleet(t, 2, fleetOpts{coreBudget: 1, maxQueue: 1, evictAfter: 5 * time.Second})

	probe := jobBody("sequential", 777777)
	pb, err := json.Marshal(probe)
	if err != nil {
		t.Fatal(err)
	}
	key, _, err := cluster.SubmissionKey(pb, netlist.Limits{
		MaxBytes: 8 << 20, MaxNodes: 200000, MaxElems: 200000,
	})
	if err != nil {
		t.Fatal(err)
	}
	ring := cluster.NewRing(cluster.DefaultVNodes)
	ring.Add(f.nodes[0].addr)
	ring.Add(f.nodes[1].addr)
	ownerAddr := ring.Lookup(key)

	var owner, other *fleetNode
	for _, n := range f.nodes {
		if n.addr == ownerAddr {
			owner = n
		} else {
			other = n
		}
	}
	if owner == nil || other == nil {
		t.Fatalf("ring owner %q is not a fleet node", ownerAddr)
	}

	// Fill the owner directly (1 running + 1 queued at these settings)
	// until its own admission control refuses.
	full := false
	for i := 0; i < 8 && !full; i++ {
		b := jobBody("sequential", int64(300000+i))
		b["cost_spin"] = 2000
		bb, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(owner.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(bb))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			full = true
		default:
			t.Fatalf("saturating submission %d: unexpected status %d", i, resp.StatusCode)
		}
	}
	if !full {
		t.Fatal("owner node never reported queue-full")
	}

	status, view := f.submit(t, probe)
	if status != http.StatusAccepted {
		t.Fatalf("probe not accepted while the other node is idle: status %d (%v)", status, view)
	}
	if got, _ := view["node"].(string); got != other.addr {
		t.Fatalf("probe routed to %q, want spill to %q (owner %q is full)", got, other.addr, ownerAddr)
	}
	id, _ := view["id"].(string)
	if v := f.await(t, id, 120*time.Second); v["state"] != "done" {
		t.Fatalf("spilled probe did not finish: %v", v)
	}

	body := f.metrics(t)
	if strings.Contains(body, "parsimd_fleet_spills_total 0\n") {
		t.Errorf("spill not counted\n%s", body)
	}
}

// TestNodeAndCoordinatorDecodeAlike: a node and a coordinator decode a
// submission body through the same strict decoder, so for every body the
// node's status is the coordinator's — 202 for a body the fleet admits,
// 400 for one neither may silently reinterpret.
func TestNodeAndCoordinatorDecodeAlike(t *testing.T) {
	f := newFleet(t, 1, fleetOpts{})
	node := f.nodes[0].ts.URL
	post := func(url, body string) int {
		t.Helper()
		resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	netlistJSON, err := json.Marshal(fleetNetlist)
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range []struct {
		name, tail string
		want       int
	}{
		{"valid", `}`, http.StatusAccepted},
		{"trailing white space", "}\n\t ", http.StatusAccepted},
		{"trailing garbage", `} garbage`, http.StatusBadRequest},
		{"second object", `}{}`, http.StatusBadRequest},
		{"misspelt field", `,"lane_strid":7}`, http.StatusBadRequest},
		{"local-only option", `,"no_steal":true}`, http.StatusBadRequest},
		{"wrong type", `,"workers":"two"}`, http.StatusBadRequest},
	} {
		// A horizon per case and per target, so no body dedups onto another.
		body := func(target int) string {
			return fmt.Sprintf(`{"netlist":%s,"engine":"sequential","horizon":%d`, netlistJSON, 64+2*i+target) + tc.tail
		}
		nodeStatus, coordStatus := post(node, body(0)), post(f.coordTS.URL, body(1))
		if nodeStatus != tc.want || coordStatus != tc.want {
			t.Errorf("%s: node %d, coordinator %d, want %d from both", tc.name, nodeStatus, coordStatus, tc.want)
		}
	}
}

// Package cluster is the fleet layer over parsimd: a coordinator/worker
// topology where parsimd nodes register over HTTP/JSON, jobs are sharded
// by a consistent hash ring over a content-addressed job key, identical
// submissions are deduped against a bounded LRU result cache, and
// backpressure composes end to end (node-full spills to the next ring
// successor; the client sees 429 + Retry-After only when the whole fleet
// is full). Node death is detected by missed heartbeats; an evicted
// node's in-flight jobs are requeued onto the survivors, resuming from
// the dead node's last checkpoint snapshot when one is readable.
//
// The package deliberately does not import internal/server: the
// coordinator talks to workers only over their public HTTP API, so any
// parsimd — in-process in a test, a separate process on one host, or a
// remote box — is a valid fleet member. internal/server imports this
// package for the submission schema, the job key and the result cache,
// which the standalone daemon reuses to dedup identical submissions on a
// single node.
package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/netlist"
)

// circuitKey computes the content-addressed job key: the SHA-256 of a
// canonical serialization of the circuit plus the result-affecting
// submission options, written exactly as s holds them. The serialization
// sorts nodes and elements by name and emits every parameter field in a
// fixed order, so two netlists that declare the same circuit in different
// textual orders — the parser assigns IDs by declaration order — hash to
// the same key.
//
// The serialization is a wire contract: every member of a fleet must
// derive the same key for the same job, whatever version it runs, so its
// bytes never change (key_test.go pins them).
func circuitKey(c *circuit.Circuit, s *Submission) string {
	w := keyWriter{h: sha256.New(), buf: make([]byte, 0, keyChunk+512)}
	w.str("parsim-job-key/v1\ncircuit ").str(c.Name).str("\n")

	order := make([]int32, max(len(c.Nodes), len(c.Elems)))
	// Names are unique within a circuit, so each order is total.
	nodes := iota32(order[:len(c.Nodes)])
	slices.SortFunc(nodes, func(a, b int32) int { return strings.Compare(c.Nodes[a].Name, c.Nodes[b].Name) })
	for _, i := range nodes {
		n := &c.Nodes[i]
		w.str("node ").str(n.Name).str(" ").int(int64(n.Width)).str("\n")
		w.flush(keyChunk)
	}

	elems := iota32(order[:len(c.Elems)])
	slices.SortFunc(elems, func(a, b int32) int { return strings.Compare(c.Elems[a].Name, c.Elems[b].Name) })
	for _, i := range elems {
		el := &c.Elems[i]
		w.str("elem ").str(circuit.KindName(el.Kind)).str(" ").str(el.Name)
		w.str(" delay=").int(int64(el.Delay))
		w.str(" out=").nodeNames(c, el.Out)
		w.str(" in=").nodeNames(c, el.In)
		w.str(" ").params(&el.Params)
		w.str("\n")
		w.flush(keyChunk)
	}

	// Deadlines, watchdog windows, watch lists and resume_from are
	// deliberately absent: they bound or observe a run without changing
	// its result.
	w.str("opts engine=").str(s.Engine)
	w.str(" workers=").int(int64(s.Workers))
	w.str(" horizon=").int(s.Horizon)
	w.str(" spin=").int(s.CostSpin)
	w.str(" lint=").str(s.Lint)
	w.str(" fallback=").bool(s.Fallback)
	w.str(" lanes=").int(int64(s.Lanes))
	w.str(" stride=").int(s.LaneStride)
	w.str(" probe=").int(int64(s.ProbeLane))
	w.str(" faults=").bool(s.FaultSim)
	w.str(" fpasses=").int(int64(s.FaultMaxPasses))
	w.str(" fstat=").bool(s.FaultStatuses)
	w.str("\n")
	w.flush(0)
	var sum [sha256.Size]byte
	return hex.EncodeToString(w.h.Sum(sum[:0]))
}

// iota32 fills s with 0, 1, 2, ...
func iota32(s []int32) []int32 {
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// keyChunk is how many serialized bytes keyWriter gathers before it hands
// them to the hasher.
const keyChunk = 8 << 10

// keyWriter formats the canonical serialization into one buffer, with no
// allocation per field, and feeds the hasher a chunk at a time.
type keyWriter struct {
	h   hash.Hash
	buf []byte
}

// flush hands the buffer to the hasher once it holds more than min bytes.
func (w *keyWriter) flush(min int) {
	if len(w.buf) > min {
		w.h.Write(w.buf)
		w.buf = w.buf[:0]
	}
}

func (w *keyWriter) str(s string) *keyWriter {
	w.buf = append(w.buf, s...)
	return w
}

func (w *keyWriter) int(v int64) *keyWriter {
	w.buf = strconv.AppendInt(w.buf, v, 10)
	return w
}

func (w *keyWriter) bool(v bool) *keyWriter {
	w.buf = strconv.AppendBool(w.buf, v)
	return w
}

// nodeNames joins the names behind a port list; port order is semantic
// and preserved.
func (w *keyWriter) nodeNames(c *circuit.Circuit, ids []circuit.NodeID) *keyWriter {
	if len(ids) == 0 {
		return w.str("-")
	}
	for i, id := range ids {
		if i > 0 {
			w.str(",")
		}
		w.str(c.Nodes[id].Name)
	}
	return w
}

// params emits every Params field in a fixed order. Unused fields
// serialize as their zero forms, so the digest never depends on which
// fields a kind happens to read.
func (w *keyWriter) params(p *circuit.Params) {
	w.buf = p.Init.Append(append(w.buf, "init="...))
	w.str(" period=").int(int64(p.Period))
	w.str(" phase=").int(int64(p.Phase))
	w.str(" duty=").int(int64(p.Duty))
	w.str(" seed=").int(p.Seed)
	w.str(" lo=").int(int64(p.Lo))
	w.str(" shift=").int(int64(p.Shift))
	w.str(" times=")
	for i, t := range p.Times {
		if i > 0 {
			w.str(",")
		}
		w.int(int64(t))
	}
	w.str(" values=")
	for i, v := range p.Values {
		if i > 0 {
			w.str(",")
		}
		w.buf = v.Append(w.buf)
	}
	w.str(" mem=")
	for i, m := range p.Mem {
		if i > 0 {
			w.str(",")
		}
		w.buf = strconv.AppendUint(w.buf, m, 10)
	}
}

// Submission is the body of POST /v1/jobs, on a node and on a
// coordinator alike — the one declaration of that wire format. The node
// admits and runs it, the journal records it, `parsim -submit` sends it,
// and the coordinator decodes it to key and route the job before
// forwarding the body verbatim.
type Submission struct {
	// Netlist is the circuit in the parsim netlist text format.
	Netlist string `json:"netlist"`
	// Engine names the algorithm (canonical name or alias).
	Engine string `json:"engine"`
	// Workers is the parallel worker count, which is also the number of
	// cores the scheduler reserves for the run. Default 1.
	Workers int `json:"workers,omitempty"`
	// Horizon is the simulated time bound; required, > 0.
	Horizon int64 `json:"horizon"`
	// DeadlineMS bounds the run's wall-clock time (0 = server default).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// WatchdogMS enables the stall watchdog (0 = off).
	WatchdogMS int64 `json:"watchdog_ms,omitempty"`
	// Lint selects pre-flight analysis: "off", "warn" or "strict".
	Lint string `json:"lint,omitempty"`
	// Fallback re-runs a faulted run once on the sequential engine.
	Fallback bool `json:"fallback,omitempty"`
	// CostSpin is the synthetic per-evaluation work multiplier; a node
	// refuses one above 10,000.
	CostSpin int64 `json:"cost_spin,omitempty"`
	// Watch lists node names to record; required for the /vcd endpoint.
	// Watch jobs are never deduped: the waveform is per-job state.
	Watch []string `json:"watch,omitempty"`
	// Lanes batches seed-shifted stimulus vectors into one run of a lane
	// engine (0 = the engine's default: 64, one machine word, for vector
	// and 1 for jit; larger counts widen every node plane to
	// ceil(lanes/64) words and are admission-checked against the server's
	// plane budget; ignored by the scalar engines). One job, one core
	// reservation, Lanes results: the per-lane final values come back in
	// the result's lane_final rows.
	Lanes int `json:"lanes,omitempty"`
	// LaneStride is the per-lane rand/gray seed offset (0 = 1).
	LaneStride int64 `json:"lane_stride,omitempty"`
	// ProbeLane selects the lane the watch recording and the final values
	// observe (default 0, the scalar-identical lane); it must be below the
	// lane count the job runs at, which is 1 for a scalar engine.
	ProbeLane int `json:"probe_lane,omitempty"`
	// FaultSim switches a lane-engine job (vector or jit) to concurrent
	// stuck-at fault simulation: lane 0 simulates the good machine, every
	// other lane injects one fault from the circuit's collapsed stuck-at
	// list, and the result carries a fault_coverage section. Rejected
	// (400) on any other engine.
	FaultSim bool `json:"fault_sim,omitempty"`
	// FaultMaxPasses caps the chunked fault passes (0 = whole list).
	FaultMaxPasses int `json:"fault_max_passes,omitempty"`
	// FaultStatuses includes the per-fault site/step rows in the result.
	FaultStatuses bool `json:"fault_statuses,omitempty"`
	// ResumeFrom names a checkpoint snapshot file on the server's
	// filesystem to continue from instead of starting at t=0. The fleet
	// coordinator sets it when requeueing a job off a dead node that left
	// a snapshot behind (state dirs shared between nodes). A snapshot
	// that is missing, corrupt or on a checkpoint-incapable engine is
	// dropped and the job runs from scratch — resuming is an optimisation,
	// never a correctness requirement.
	ResumeFrom string `json:"resume_from,omitempty"`
}

// DecodeSubmission decodes a submission body strictly: a field the schema
// does not declare, or anything but white space after the JSON object, is
// an error suitable for a 400 response — a misspelt option is refused, not
// silently ignored. Node and coordinator both decode through it, so they
// accept exactly the same bodies.
func DecodeSubmission(body []byte) (*Submission, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	sub := new(Submission)
	if err := dec.Decode(sub); err != nil {
		return nil, fmt.Errorf("malformed JSON body: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("malformed JSON body: data after the JSON object")
	}
	return sub, nil
}

// KeyForSubmission computes the content-addressed job key for an
// already-parsed circuit plus the submission's options. Two submissions
// with equal keys simulate the same circuit the same way and produce
// identical reports, so the second can be served from the first's. The
// options are canonicalized first: engine aliases resolve through the
// registry when the engine is known locally (the worker canonicalizes the
// same way, so "seq" and "sequential" dedup together; an unknown name is
// hashed as written and rejected by the worker at admission), workers 0
// means one, and lint modes take their canonical spelling.
func KeyForSubmission(c *circuit.Circuit, s *Submission) string {
	canon := *s
	if eng, err := engine.Get(s.Engine); err == nil {
		canon.Engine = eng.Name()
	}
	if canon.Workers <= 0 {
		canon.Workers = 1 // a zero request means "one worker" everywhere downstream
	}
	if mode, err := engine.ParseLintMode(s.Lint); err == nil {
		canon.Lint = mode.String()
	}
	return circuitKey(c, &canon)
}

// submissionKeyRuns counts SubmissionKey calls. Test hook: the
// coordinator's promise to key a verbatim resubmission without parsing it
// is pinned against it.
var submissionKeyRuns atomic.Int64

// SubmissionKey decodes a raw submission body, parses its netlist under
// the given limits and returns the content-addressed job key plus the
// decoded submission. The error is suitable for a 400 response: a body the
// coordinator cannot key is one no worker could admit either.
func SubmissionKey(body []byte, lim netlist.Limits) (string, *Submission, error) {
	submissionKeyRuns.Add(1)
	sub, err := DecodeSubmission(body)
	if err != nil {
		return "", nil, err
	}
	circ, err := netlist.ParseString(sub.Netlist, lim)
	if err != nil {
		return "", nil, fmt.Errorf("netlist: %w", err)
	}
	return KeyForSubmission(circ, sub), sub, nil
}

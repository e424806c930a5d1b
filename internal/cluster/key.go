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
// package for the job key and the result cache, which the standalone
// daemon reuses to dedup identical submissions on a single node.
package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/netlist"
)

// KeyOptions are the submission options folded into the content-addressed
// job key: everything that can change the bytes of the run report. Two
// submissions with equal keys simulate the same circuit the same way and
// produce identical results, so the second can be served from the first's
// cached report. Deadlines and watchdog windows are deliberately absent —
// they bound a run's wall clock without changing its result.
type KeyOptions struct {
	Engine         string // canonical engine name (aliases resolved)
	Workers        int
	Horizon        int64
	CostSpin       int64
	Lint           string
	Fallback       bool
	Lanes          int
	LaneStride     int64
	ProbeLane      int
	FaultSim       bool
	FaultMaxPasses int
	FaultStatuses  bool
}

// CircuitKey computes the content-addressed job key: the SHA-256 of a
// canonical serialization of the circuit plus the option digest. The
// serialization sorts nodes and elements by name and emits every
// parameter field in a fixed order, so two netlists that declare the same
// circuit in different textual orders — the parser assigns IDs by
// declaration order — hash to the same key.
//
// The serialization is a wire contract: every member of a fleet must
// derive the same key for the same job, whatever version it runs, so its
// bytes never change (key_test.go pins them).
func CircuitKey(c *circuit.Circuit, opts KeyOptions) string {
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

	if opts.Workers <= 0 {
		opts.Workers = 1 // a zero request means "one worker" everywhere downstream
	}
	w.str("opts engine=").str(opts.Engine)
	w.str(" workers=").int(int64(opts.Workers))
	w.str(" horizon=").int(opts.Horizon)
	w.str(" spin=").int(opts.CostSpin)
	w.str(" lint=").str(opts.Lint)
	w.str(" fallback=").bool(opts.Fallback)
	w.str(" lanes=").int(int64(opts.Lanes))
	w.str(" stride=").int(opts.LaneStride)
	w.str(" probe=").int(int64(opts.ProbeLane))
	w.str(" faults=").bool(opts.FaultSim)
	w.str(" fpasses=").int(int64(opts.FaultMaxPasses))
	w.str(" fstat=").bool(opts.FaultStatuses)
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

// Submission mirrors the result-affecting fields of the parsimd
// submission body (internal/server's jobRequest wire format). The
// coordinator decodes just enough of a submission to compute its key and
// route it; the full body is forwarded to the worker verbatim, so fields
// this mirror omits (deadline_ms, watchdog_ms, watch) still reach the
// node that runs the job.
type Submission struct {
	Netlist        string   `json:"netlist"`
	Engine         string   `json:"engine"`
	Workers        int      `json:"workers,omitempty"`
	Horizon        int64    `json:"horizon"`
	Lint           string   `json:"lint,omitempty"`
	Fallback       bool     `json:"fallback,omitempty"`
	CostSpin       int64    `json:"cost_spin,omitempty"`
	Watch          []string `json:"watch,omitempty"`
	Lanes          int      `json:"lanes,omitempty"`
	LaneStride     int64    `json:"lane_stride,omitempty"`
	ProbeLane      int      `json:"probe_lane,omitempty"`
	FaultSim       bool     `json:"fault_sim,omitempty"`
	FaultMaxPasses int      `json:"fault_max_passes,omitempty"`
	FaultStatuses  bool     `json:"fault_statuses,omitempty"`
}

// keyOptions maps the wire fields onto KeyOptions, resolving engine
// aliases through the registry when the engine is known locally (the
// worker canonicalizes the same way, so "seq" and "sequential" dedup
// together); an unknown name is hashed as written and rejected by the
// worker at admission.
func (s *Submission) keyOptions() KeyOptions {
	name := s.Engine
	if eng, err := engine.Get(name); err == nil {
		name = eng.Name()
	}
	workers := s.Workers
	if workers == 0 {
		workers = 1
	}
	lint := s.Lint
	if mode, err := engine.ParseLintMode(lint); err == nil {
		lint = mode.String()
	}
	return KeyOptions{
		Engine:         name,
		Workers:        workers,
		Horizon:        s.Horizon,
		CostSpin:       s.CostSpin,
		Lint:           lint,
		Fallback:       s.Fallback,
		Lanes:          s.Lanes,
		LaneStride:     s.LaneStride,
		ProbeLane:      s.ProbeLane,
		FaultSim:       s.FaultSim,
		FaultMaxPasses: s.FaultMaxPasses,
		FaultStatuses:  s.FaultStatuses,
	}
}

// KeyForSubmission computes the job key for an already-parsed circuit
// plus the wire-level submission options — the entry point the daemon
// uses, since admission control has parsed the netlist anyway.
func KeyForSubmission(c *circuit.Circuit, s *Submission) string {
	return CircuitKey(c, s.keyOptions())
}

// submissionKeyRuns counts SubmissionKey calls. Test hook: the
// coordinator's promise to key a verbatim resubmission without parsing it
// is pinned against it.
var submissionKeyRuns atomic.Int64

// SubmissionKey decodes a raw submission body, parses its netlist under
// the given limits and returns the content-addressed job key plus the
// decoded mirror. The error is suitable for a 400 response: a body the
// coordinator cannot key is one no worker could admit either.
func SubmissionKey(body []byte, lim netlist.Limits) (string, *Submission, error) {
	submissionKeyRuns.Add(1)
	var sub Submission
	if err := json.Unmarshal(body, &sub); err != nil {
		return "", nil, fmt.Errorf("malformed JSON body: %v", err)
	}
	circ, err := netlist.ParseString(sub.Netlist, lim)
	if err != nil {
		return "", nil, fmt.Errorf("netlist: %w", err)
	}
	return CircuitKey(circ, sub.keyOptions()), &sub, nil
}

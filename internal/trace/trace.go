// Package trace implements observation of simulation runs: node-change
// probes, an in-memory waveform recorder used to cross-check simulators
// event for event, and a VCD writer for the "watched nodes" the paper
// excludes from its timed region.
package trace

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"parsim/internal/circuit"
	"parsim/internal/logic"
)

// Probe receives node value changes. Implementations must be safe for
// concurrent use: the parallel simulators invoke probes from worker
// goroutines. Calls for a single node always arrive in increasing time
// order; calls for different nodes may interleave arbitrarily.
type Probe interface {
	OnChange(n circuit.NodeID, t circuit.Time, v logic.Value)
}

// Change is one recorded node transition.
type Change struct {
	Time  circuit.Time
	Value logic.Value
}

// Recorder accumulates the full change history of every node. A Recorder
// with no filter records everything; NewRecorderFor records only selected
// nodes.
type Recorder struct {
	mu     sync.Mutex
	hist   map[circuit.NodeID][]Change
	filter map[circuit.NodeID]bool // nil = record all
}

// NewRecorder records every node change.
func NewRecorder() *Recorder {
	return &Recorder{hist: make(map[circuit.NodeID][]Change)}
}

// NewRecorderFor records only the listed nodes.
func NewRecorderFor(nodes ...circuit.NodeID) *Recorder {
	r := NewRecorder()
	r.filter = make(map[circuit.NodeID]bool, len(nodes))
	for _, n := range nodes {
		r.filter[n] = true
	}
	return r
}

// OnChange implements Probe.
func (r *Recorder) OnChange(n circuit.NodeID, t circuit.Time, v logic.Value) {
	if r.filter != nil && !r.filter[n] {
		return
	}
	r.mu.Lock()
	r.hist[n] = append(r.hist[n], Change{Time: t, Value: v})
	r.mu.Unlock()
}

// History returns the recorded change list for a node, sorted by time. The
// returned slice is owned by the caller.
func (r *Recorder) History(n circuit.NodeID) []Change {
	r.mu.Lock()
	h := append([]Change(nil), r.hist[n]...)
	r.mu.Unlock()
	sort.Slice(h, func(i, j int) bool { return h[i].Time < h[j].Time })
	return h
}

// Nodes returns the IDs of all nodes with at least one recorded change,
// sorted.
func (r *Recorder) Nodes() []circuit.NodeID {
	r.mu.Lock()
	ids := make([]circuit.NodeID, 0, len(r.hist))
	for n := range r.hist {
		ids = append(ids, n)
	}
	r.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ValueAt returns the recorded value of node n at time t, or X if the node
// has no change at or before t.
func (r *Recorder) ValueAt(c *circuit.Circuit, n circuit.NodeID, t circuit.Time) logic.Value {
	h := r.History(n)
	i := sort.Search(len(h), func(i int) bool { return h[i].Time > t }) - 1
	if i < 0 {
		return logic.AllX(c.Nodes[n].Width)
	}
	return h[i].Value
}

// TotalChanges returns the number of recorded changes across all nodes.
func (r *Recorder) TotalChanges() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, h := range r.hist {
		n += len(h)
	}
	return n
}

// Diff compares two recorders and returns a description of the first
// mismatch, or "" if the histories are identical. It is the backbone of the
// simulator cross-check tests.
func Diff(c *circuit.Circuit, a, b *Recorder) string {
	an, bn := a.Nodes(), b.Nodes()
	seen := map[circuit.NodeID]bool{}
	for _, lists := range [][]circuit.NodeID{an, bn} {
		for _, n := range lists {
			if seen[n] {
				continue
			}
			seen[n] = true
			ha, hb := a.History(n), b.History(n)
			if len(ha) != len(hb) {
				return fmt.Sprintf("node %s: %d vs %d changes", c.Nodes[n].Name, len(ha), len(hb))
			}
			for i := range ha {
				if ha[i] != hb[i] {
					return fmt.Sprintf("node %s change %d: (%d, %v) vs (%d, %v)",
						c.Nodes[n].Name, i, ha[i].Time, ha[i].Value, hb[i].Time, hb[i].Value)
				}
			}
		}
	}
	return ""
}

// MultiProbe fans changes out to several probes.
type MultiProbe []Probe

// OnChange implements Probe.
func (m MultiProbe) OnChange(n circuit.NodeID, t circuit.Time, v logic.Value) {
	for _, p := range m {
		p.OnChange(n, t, v)
	}
}

// CountingProbe counts changes without storing them; useful in benchmarks
// that want probe overhead without recorder memory.
type CountingProbe struct {
	mu sync.Mutex
	n  int64
}

// OnChange implements Probe.
func (p *CountingProbe) OnChange(circuit.NodeID, circuit.Time, logic.Value) {
	p.mu.Lock()
	p.n++
	p.mu.Unlock()
}

// Count returns the number of observed changes.
func (p *CountingProbe) Count() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.n
}

// WriteVCD emits the recorder's contents as a Value Change Dump covering
// [0, horizon) for the given nodes (all recorded nodes if none listed).
func WriteVCD(w io.Writer, c *circuit.Circuit, r *Recorder, horizon circuit.Time, nodes ...circuit.NodeID) error {
	if len(nodes) == 0 {
		nodes = r.Nodes()
	}
	fmt.Fprintf(w, "$timescale 1ns $end\n$scope module %s $end\n", c.Name)
	ids := make(map[circuit.NodeID]string, len(nodes))
	for i, n := range nodes {
		id := vcdID(i)
		ids[n] = id
		fmt.Fprintf(w, "$var wire %d %s %s $end\n", c.Nodes[n].Width, id, c.Nodes[n].Name)
	}
	fmt.Fprint(w, "$upscope $end\n$enddefinitions $end\n")

	// Merge all histories into global time order.
	type ev struct {
		t circuit.Time
		n circuit.NodeID
		v logic.Value
	}
	var evs []ev
	for _, n := range nodes {
		for _, ch := range r.History(n) {
			if ch.Time < horizon {
				evs = append(evs, ev{ch.Time, n, ch.Value})
			}
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].n < evs[j].n
	})

	fmt.Fprint(w, "#0\n$dumpvars\n")
	for _, n := range nodes {
		if err := writeVCDValue(w, logic.AllX(c.Nodes[n].Width), ids[n]); err != nil {
			return err
		}
	}
	fmt.Fprint(w, "$end\n")
	last := circuit.Time(0)
	for _, e := range evs {
		if e.t != last {
			fmt.Fprintf(w, "#%d\n", e.t)
			last = e.t
		}
		if err := writeVCDValue(w, e.v, ids[e.n]); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "#%d\n", horizon)
	return err
}

func writeVCDValue(w io.Writer, v logic.Value, id string) error {
	if v.Width() == 1 {
		_, err := fmt.Fprintf(w, "%s%s\n", v.Bit(0), id)
		return err
	}
	bits := make([]byte, v.Width())
	for i := 0; i < v.Width(); i++ {
		bits[v.Width()-1-i] = v.Bit(i).String()[0]
	}
	_, err := fmt.Fprintf(w, "b%s %s\n", bits, id)
	return err
}

// vcdID generates short printable VCD identifiers.
func vcdID(i int) string {
	const base = 94 // printable ASCII '!'..'~'
	s := []byte{}
	for {
		s = append(s, byte('!'+i%base))
		i /= base
		if i == 0 {
			return string(s)
		}
	}
}

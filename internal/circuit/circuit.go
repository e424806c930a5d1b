package circuit

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"parsim/internal/logic"
)

// NodeID identifies a node (net) within one Circuit.
type NodeID int32

// ElemID identifies an element within one Circuit.
type ElemID int32

// NoElem marks the absence of a driving element.
const NoElem ElemID = -1

// PortRef names one input port of one element; nodes keep these in their
// fan-out lists.
type PortRef struct {
	Elem ElemID
	Port int32
}

// Node is a net connecting one driver output to any number of element
// inputs. Every node starts the simulation at X, as the paper assumes.
type Node struct {
	ID         NodeID
	Name       string
	Width      int
	Driver     ElemID // element whose output drives this node
	DriverPort int    // which output port of the driver
	Fanout     []PortRef
}

// Element is one simulated component.
type Element struct {
	ID     ElemID
	Name   string
	Kind   Kind
	In     []NodeID
	Out    []NodeID
	Delay  Time // output delay in ticks, >= 1
	Cost   int64
	Params Params

	circ *Circuit // set by Build; lets eval funcs resolve port widths
}

func (el *Element) inWidth(i int) int  { return el.circ.Nodes[el.In[i]].Width }
func (el *Element) outWidth(i int) int { return el.circ.Nodes[el.Out[i]].Width }

// NumStateVals returns how many logic.Values of per-instance state the
// element needs. Simulators allocate this and pass it to Eval.
func (el *Element) NumStateVals() int { return info(el.Kind).stateLen(el) }

// InitState fills a freshly allocated state slice with the element's initial
// state: clocks previously X, register contents X (or Params.Mem for RAM).
func (el *Element) InitState(state []logic.Value) {
	switch el.Kind {
	case KindDFF:
		state[0] = logic.AllX(1)
		state[1] = logic.AllX(el.outWidth(0))
	case KindDFFR:
		state[0] = logic.AllX(1)
		state[1] = logic.AllX(el.outWidth(0))
	case KindLatch:
		state[0] = logic.AllX(el.outWidth(0))
	case KindRam:
		state[0] = logic.AllX(1)
		w := el.outWidth(0)
		for i := 1; i < len(state); i++ {
			if mem := el.Params.Mem; i-1 < len(mem) {
				state[i] = logic.V(w, mem[i-1])
			} else {
				state[i] = logic.AllX(w)
			}
		}
	}
}

// Eval runs the element's evaluation function. Generator kinds must use
// GenValueAt instead.
func (el *Element) Eval(in, state, out []logic.Value) {
	f := info(el.Kind).eval
	if f == nil {
		panic(fmt.Sprintf("circuit: element %q kind %s has no eval (generator?)", el.Name, KindName(el.Kind)))
	}
	f(el, in, state, out)
}

// IsGenerator reports whether the element is a stimulus source.
func (el *Element) IsGenerator() bool { return IsGenerator(el.Kind) }

// Circuit is an immutable, validated netlist. Build one with a Builder.
// Circuits are safe for concurrent read access; all mutable simulation state
// lives inside the simulators.
type Circuit struct {
	Name     string
	Nodes    []Node
	Elems    []Element
	ByName   map[string]NodeID // node lookup
	ElByName map[string]ElemID // element lookup

	generators []ElemID
	totalCost  int64
	// structure caches StructureDigest. Nothing it covers changes after
	// Build, so the first answer stands for the life of the value.
	structure atomic.Pointer[[sha256.Size]byte]
}

// StructureDigest is a SHA-256 over the circuit's wiring alone: the node
// and element counts and every element's kind and ordered input and output
// node lists. Names, widths, delays, costs and parameters are left out, so
// renamed or re-parameterized copies of one design share a digest; the
// analyzer keys its levelization memo by it. It is computed once per
// Circuit and carried over by Clone.
func (c *Circuit) StructureDigest() [sha256.Size]byte {
	if d := c.structure.Load(); d != nil {
		return *d
	}
	h := sha256.New()
	w := bufio.NewWriter(h)
	var word [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		w.Write(word[:])
	}
	put(int64(len(c.Nodes)))
	put(int64(len(c.Elems)))
	for i := range c.Elems {
		el := &c.Elems[i]
		put(int64(el.Kind))
		put(int64(len(el.In)))
		for _, n := range el.In {
			put(int64(n))
		}
		put(int64(len(el.Out)))
		for _, n := range el.Out {
			put(int64(n))
		}
	}
	w.Flush()
	var d [sha256.Size]byte
	h.Sum(d[:0])
	c.structure.Store(&d)
	return d
}

// Generators returns the IDs of all stimulus-generator elements.
func (c *Circuit) Generators() []ElemID { return c.generators }

// NumGates returns the number of non-generator elements; the paper reports
// circuit sizes this way ("about 5000 elements at the gate level").
func (c *Circuit) NumGates() int { return len(c.Elems) - len(c.generators) }

// TotalCost returns the summed evaluation cost of all elements, the
// denominator for utilisation computations in the machine model.
func (c *Circuit) TotalCost() int64 { return c.totalCost }

// Node returns the node with the given name, or panics: circuit wiring is
// programmatic, so a missing name is a construction bug.
func (c *Circuit) Node(name string) *Node {
	id, ok := c.ByName[name]
	if !ok {
		panic(fmt.Sprintf("circuit: no node named %q", name))
	}
	return &c.Nodes[id]
}

// FindNode returns the node with the given name, or nil.
func (c *Circuit) FindNode(name string) *Node {
	if id, ok := c.ByName[name]; ok {
		return &c.Nodes[id]
	}
	return nil
}

// Stats summarises a circuit for reporting.
type Stats struct {
	Nodes      int
	Elements   int
	Generators int
	Gates      int // 1-bit logic gates
	Functional int // everything else that is not a gate or generator
	MaxFanout  int
	TotalCost  int64
}

// Stats computes summary statistics.
func (c *Circuit) Stats() Stats {
	s := Stats{Nodes: len(c.Nodes), Elements: len(c.Elems), TotalCost: c.totalCost}
	for i := range c.Elems {
		el := &c.Elems[i]
		switch {
		case el.IsGenerator():
			s.Generators++
		case el.Kind >= KindBuf && el.Kind <= KindXnor:
			s.Gates++
		default:
			s.Functional++
		}
	}
	for i := range c.Nodes {
		if f := len(c.Nodes[i].Fanout); f > s.MaxFanout {
			s.MaxFanout = f
		}
	}
	return s
}

// String returns a one-line summary.
func (c *Circuit) String() string {
	s := c.Stats()
	return fmt.Sprintf("%s: %d nodes, %d elements (%d gates, %d functional, %d generators)",
		c.Name, s.Nodes, s.Elements, s.Gates, s.Functional, s.Generators)
}

package circuit

import (
	"fmt"
	"strings"

	"parsim/internal/logic"
)

// Builder assembles a Circuit incrementally. It is not safe for concurrent
// use. All errors are accumulated and reported by Build, so construction
// code stays linear.
type Builder struct {
	name  string
	nodes []Node
	elems []Element
	byN   map[string]NodeID
	byE   map[string]ElemID
	errs  []error
	// ports is the tail of the chunk element port lists are cut from, so
	// declaring an element allocates no slice of its own.
	ports []NodeID
}

// NewBuilder returns an empty builder for a circuit with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name: name,
		byN:  make(map[string]NodeID),
		byE:  make(map[string]ElemID),
	}
}

// Grow sizes the builder for a circuit of about the given numbers of nodes
// and elements, so a caller that knows them up front (the netlist parser)
// does not pay for regrowing slices of large structs. Call it before the
// first declaration.
func (b *Builder) Grow(nodes, elems int) {
	if len(b.nodes) == 0 && len(b.elems) == 0 {
		b.nodes = make([]Node, 0, nodes)
		b.elems = make([]Element, 0, elems)
		b.byN = make(map[string]NodeID, nodes)
		b.byE = make(map[string]ElemID, elems)
	}
}

func (b *Builder) errorf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
}

// Node declares a node with the given name and width and returns its ID.
// Declaring the same name twice with the same width returns the existing
// node, so generators can wire by name without bookkeeping.
func (b *Builder) Node(name string, width int) NodeID {
	if id, ok := b.byN[name]; ok {
		if b.nodes[id].Width != width {
			b.errorf("node %q redeclared with width %d (was %d)", name, width, b.nodes[id].Width)
		}
		return id
	}
	if width < 1 || width > logic.MaxWidth {
		b.errorf("node %q width %d out of range", name, width)
		width = 1
	}
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{ID: id, Name: name, Width: width, Driver: NoElem})
	b.byN[name] = id
	return id
}

// Bit declares (or returns) the 1-bit node with the given name.
func (b *Builder) Bit(name string) NodeID { return b.Node(name, 1) }

// Width returns the declared width of a node.
func (b *Builder) Width(n NodeID) int { return b.nodes[n].Width }

// Lookup returns the node with the given name, if declared.
func (b *Builder) Lookup(name string) (NodeID, bool) {
	id, ok := b.byN[name]
	return id, ok
}

// LookupElement returns the element with the given name, if declared.
func (b *Builder) LookupElement(name string) (ElemID, bool) {
	id, ok := b.byE[name]
	return id, ok
}

// AddElement declares an element. Outputs and inputs are node IDs from
// Node. Delay must be >= 0 ticks; zero-delay elements build but are
// hazardous (a zero-delay combinational cycle livelocks the asynchronous
// engines), which the static analyzer in internal/analyze reports and the
// engines' Lint modes refuse. The element's evaluation cost starts at the
// kind's default (DefaultCost) and may be adjusted on the built circuit
// for cost-model experiments.
func (b *Builder) AddElement(kind Kind, name string, delay Time, outs, ins []NodeID, params Params) ElemID {
	if _, ok := b.byE[name]; ok {
		b.errorf("element %q (%s): declared twice", name, KindName(kind))
	}
	if delay < 0 {
		b.errorf("element %q (%s): negative delay %d", name, KindName(kind), delay)
		delay = 1
	}
	id := ElemID(len(b.elems))
	el := Element{
		ID:     id,
		Name:   name,
		Kind:   kind,
		In:     b.copyPorts(ins),
		Out:    b.copyPorts(outs),
		Delay:  delay,
		Cost:   DefaultCost(kind),
		Params: params,
	}
	b.elems = append(b.elems, el)
	b.byE[name] = id
	for port, n := range outs {
		nd := &b.nodes[n]
		if nd.Driver != NoElem {
			prev := &b.elems[nd.Driver]
			b.errorf("node %q driven by both %q (%s) and %q (%s)",
				nd.Name, prev.Name, KindName(prev.Kind), name, KindName(kind))
			continue
		}
		nd.Driver = id
		nd.DriverPort = port
	}
	return id
}

// portChunk is how many port entries the builder allocates at a time.
const portChunk = 512

// copyPorts returns a private copy of ids (nil when empty), cut from the
// builder's current chunk with its capacity clipped so that appending to
// one element's list cannot reach the next one's.
func (b *Builder) copyPorts(ids []NodeID) []NodeID {
	n := len(ids)
	if n == 0 {
		return nil
	}
	if n > len(b.ports) {
		b.ports = make([]NodeID, max(n, portChunk))
	}
	out := b.ports[:n:n]
	b.ports = b.ports[n:]
	copy(out, ids)
	return out
}

// wireFanout fills every node's fan-out list, in element then port order,
// from one backing array sized by a counting pass.
func (b *Builder) wireFanout() {
	counts := make([]int32, len(b.nodes))
	total := 0
	for i := range b.elems {
		for _, n := range b.elems[i].In {
			counts[n]++
		}
		total += len(b.elems[i].In)
	}
	refs := make([]PortRef, total)
	for i := range b.nodes {
		if n := int(counts[i]); n > 0 {
			b.nodes[i].Fanout = refs[:0:n]
			refs = refs[n:]
		}
	}
	for i := range b.elems {
		el := &b.elems[i]
		for port, n := range el.In {
			b.nodes[n].Fanout = append(b.nodes[n].Fanout, PortRef{Elem: el.ID, Port: int32(port)})
		}
	}
}

// Gate declares an n-input single-output gate with unit parameters.
func (b *Builder) Gate(kind Kind, name string, delay Time, out NodeID, ins ...NodeID) ElemID {
	return b.AddElement(kind, name, delay, []NodeID{out}, ins, Params{})
}

// Clock declares a clock generator: first rising edge at phase, high for
// duty ticks (period/2 if duty is 0), repeating every period ticks.
func (b *Builder) Clock(name string, out NodeID, period, phase, duty Time) ElemID {
	return b.AddElement(KindClock, name, 1, []NodeID{out}, nil,
		Params{Period: period, Phase: phase, Duty: duty})
}

// Wave declares a piecewise-constant waveform generator. times must be
// strictly increasing; the output holds values[i] from times[i] until the
// next change (X before the first time).
func (b *Builder) Wave(name string, out NodeID, times []Time, values []logic.Value) ElemID {
	return b.AddElement(KindWave, name, 1, []NodeID{out}, nil,
		Params{Times: times, Values: values})
}

// Rand declares a pseudo-random vector generator producing a fresh value
// every period ticks, reproducible from seed.
func (b *Builder) Rand(name string, out NodeID, period Time, seed int64) ElemID {
	return b.AddElement(KindRand, name, 1, []NodeID{out}, nil,
		Params{Period: period, Seed: seed})
}

// Const declares a constant driver.
func (b *Builder) Const(name string, out NodeID, v logic.Value) ElemID {
	return b.AddElement(KindConst, name, 1, []NodeID{out}, nil, Params{Init: v})
}

// checker carries validation context for kind-specific port checks.
type checker struct {
	b  *Builder
	el *Element
}

func (c *checker) errorf(format string, args ...any) {
	c.b.errorf("element %q (%s): "+format,
		append([]any{c.el.Name, KindName(c.el.Kind)}, args...)...)
}

func (c *checker) inW(i int) int  { return c.b.nodes[c.el.In[i]].Width }
func (c *checker) outW(i int) int { return c.b.nodes[c.el.Out[i]].Width }

// BuildErrors aggregates every problem found while building a circuit, so
// one Build reports all mistakes instead of the first. It unwraps to the
// individual errors for errors.Is/As.
type BuildErrors struct {
	Circuit string
	Errs    []error
}

// Error lists every accumulated error, one per line.
func (e *BuildErrors) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "circuit %q: %d error(s):", e.Circuit, len(e.Errs))
	for _, err := range e.Errs {
		sb.WriteString("\n  ")
		sb.WriteString(err.Error())
	}
	return sb.String()
}

// Unwrap returns the individual errors.
func (e *BuildErrors) Unwrap() []error { return e.Errs }

// Build validates the netlist and returns the immutable Circuit. It fails if
// any node is undriven or multiply driven, any port count or width is wrong
// for its kind, or any accumulated construction error occurred; every
// error is reported, collected in a *BuildErrors.
func (b *Builder) Build() (*Circuit, error) {
	ck := &checker{b: b}
	for i := range b.elems {
		el := &b.elems[i]
		ki := info(el.Kind)
		portsOK := true
		switch {
		case ki.minIn >= 0 && ki.maxIn == 0 && len(el.In) < ki.minIn:
			b.errorf("element %q (%s): needs at least %d inputs, has %d",
				el.Name, ki.name, ki.minIn, len(el.In))
			portsOK = false
		case ki.minIn == -1 && len(el.In) != ki.maxIn:
			b.errorf("element %q (%s): needs exactly %d inputs, has %d",
				el.Name, ki.name, ki.maxIn, len(el.In))
			portsOK = false
		}
		if len(el.Out) != ki.outs {
			b.errorf("element %q (%s): needs %d outputs, has %d",
				el.Name, ki.name, ki.outs, len(el.Out))
			portsOK = false
		}
		if portsOK && ki.check != nil {
			ck.el = el
			ki.check(el, ck)
		}
	}
	for i := range b.nodes {
		if b.nodes[i].Driver == NoElem {
			b.errorf("node %q has no driver", b.nodes[i].Name)
		}
	}
	if len(b.errs) > 0 {
		return nil, &BuildErrors{Circuit: b.name, Errs: b.errs}
	}
	b.wireFanout()
	c := &Circuit{
		Name:     b.name,
		Nodes:    b.nodes,
		Elems:    b.elems,
		ByName:   b.byN,
		ElByName: b.byE,
	}
	for i := range c.Elems {
		el := &c.Elems[i]
		el.circ = c
		c.totalCost += el.Cost
		if el.IsGenerator() {
			c.generators = append(c.generators, el.ID)
		}
	}
	// Prevent accidental reuse of the builder: its slices are now owned by
	// the circuit.
	b.nodes, b.elems, b.byN, b.byE = nil, nil, nil, nil
	return c, nil
}

// MustBuild is Build for programmatic generators whose output is fixed; it
// panics on error.
func (b *Builder) MustBuild() *Circuit {
	c, err := b.Build()
	if err != nil {
		panic(err)
	}
	return c
}

// ---- kind-specific port validation ----

func checkGate(el *Element, c *checker) {
	w := c.outW(0)
	for i := range el.In {
		if c.inW(i) != w {
			c.errorf("input %d width %d != output width %d", i, c.inW(i), w)
		}
	}
}

func checkMux2(el *Element, c *checker) {
	if c.inW(0) != 1 {
		c.errorf("select must be 1 bit")
	}
	if c.inW(1) != c.outW(0) || c.inW(2) != c.outW(0) {
		c.errorf("data widths must match output")
	}
}

func checkDFF(el *Element, c *checker) {
	if c.inW(0) != 1 {
		c.errorf("clock/enable must be 1 bit")
	}
	if c.inW(1) != c.outW(0) {
		c.errorf("data width %d != output width %d", c.inW(1), c.outW(0))
	}
}

func checkDFFR(el *Element, c *checker) {
	if c.inW(0) != 1 || c.inW(1) != 1 {
		c.errorf("clock and reset must be 1 bit")
	}
	if c.inW(2) != c.outW(0) {
		c.errorf("data width %d != output width %d", c.inW(2), c.outW(0))
	}
	if el.Params.Init.Width() != c.outW(0) {
		c.errorf("reset value width %d != output width %d", el.Params.Init.Width(), c.outW(0))
	}
}

func checkSameWidth(el *Element, c *checker) {
	w := c.outW(0)
	for i := range el.In {
		if c.inW(i) != w {
			c.errorf("input %d width %d != output width %d", i, c.inW(i), w)
		}
	}
}

func checkConst(el *Element, c *checker) {
	if el.Params.Init.Width() != c.outW(0) {
		c.errorf("const value width %d != output width %d", el.Params.Init.Width(), c.outW(0))
	}
}

func checkAddC(el *Element, c *checker) {
	w := c.outW(0)
	if c.inW(0) != w || c.inW(1) != w {
		c.errorf("operand widths must match sum width %d", w)
	}
	if c.inW(2) != 1 || c.outW(1) != 1 {
		c.errorf("carry ports must be 1 bit")
	}
}

func checkCmp(el *Element, c *checker) {
	if c.inW(0) != c.inW(1) {
		c.errorf("operand widths differ: %d vs %d", c.inW(0), c.inW(1))
	}
	if c.outW(0) != 1 {
		c.errorf("comparison output must be 1 bit")
	}
}

func checkSlice(el *Element, c *checker) {
	if el.Params.Lo < 0 || el.Params.Lo+c.outW(0) > c.inW(0) {
		c.errorf("slice [%d,%d) out of input width %d", el.Params.Lo, el.Params.Lo+c.outW(0), c.inW(0))
	}
}

func checkExt(el *Element, c *checker) {
	if c.outW(0) < c.inW(0) {
		c.errorf("extension narrows %d -> %d", c.inW(0), c.outW(0))
	}
}

func checkConcat(el *Element, c *checker) {
	if c.inW(0)+c.inW(1) != c.outW(0) {
		c.errorf("input widths %d+%d != output width %d", c.inW(0), c.inW(1), c.outW(0))
	}
}

func checkShift(el *Element, c *checker) {
	if c.inW(0) != c.outW(0) {
		c.errorf("input width %d != output width %d", c.inW(0), c.outW(0))
	}
	if el.Params.Shift < 0 {
		c.errorf("negative shift %d", el.Params.Shift)
	}
}

func checkRed(el *Element, c *checker) {
	if c.outW(0) != 1 {
		c.errorf("reduction output must be 1 bit")
	}
}

func checkAlu(el *Element, c *checker) {
	if c.inW(0) != 3 {
		c.errorf("op input must be 3 bits")
	}
	if c.inW(1) != c.outW(0) || c.inW(2) != c.outW(0) {
		c.errorf("operand widths must match output width %d", c.outW(0))
	}
}

func checkRom(el *Element, c *checker) {
	if len(el.Params.Mem) == 0 {
		c.errorf("rom has no contents")
	}
	if c.inW(0) > 30 {
		c.errorf("address width %d unreasonably large", c.inW(0))
	}
}

func checkRam(el *Element, c *checker) {
	if c.inW(0) != 1 || c.inW(1) != 1 {
		c.errorf("clock and write-enable must be 1 bit")
	}
	if c.inW(3) != c.outW(0) {
		c.errorf("write data width %d != read data width %d", c.inW(3), c.outW(0))
	}
	if c.inW(2) > 20 {
		c.errorf("address width %d too large to allocate state", c.inW(2))
	}
}

func checkClock(el *Element, c *checker) {
	if c.outW(0) != 1 {
		c.errorf("clock output must be 1 bit")
	}
	p := el.Params
	if p.Period < 2 {
		c.errorf("period %d < 2", p.Period)
	}
	duty := p.Duty
	if duty == 0 {
		duty = p.Period / 2
	}
	if duty < 1 || duty >= p.Period {
		c.errorf("duty %d outside (0, period)", duty)
	}
	if p.Phase < 0 {
		c.errorf("negative phase %d", p.Phase)
	}
}

func checkWave(el *Element, c *checker) {
	p := el.Params
	if len(p.Times) != len(p.Values) {
		c.errorf("times/values length mismatch: %d vs %d", len(p.Times), len(p.Values))
		return
	}
	if len(p.Times) == 0 {
		c.errorf("empty waveform")
	}
	for i := range p.Times {
		if i > 0 && p.Times[i] <= p.Times[i-1] {
			c.errorf("times not strictly increasing at index %d", i)
		}
		if p.Times[i] < 0 {
			c.errorf("negative time at index %d", i)
		}
		if p.Values[i].Width() != c.outW(0) {
			c.errorf("value %d width %d != output width %d", i, p.Values[i].Width(), c.outW(0))
		}
	}
}

func checkRand(el *Element, c *checker) {
	if el.Params.Period < 1 {
		c.errorf("period %d < 1", el.Params.Period)
	}
}

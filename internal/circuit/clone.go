package circuit

import "parsim/internal/logic"

// Clone returns an independent deep copy of the circuit: nodes (including
// fan-out lists), elements (including port lists and parameter slices) and
// the name-lookup maps are all duplicated, so nothing the copy reaches is
// shared mutably with the original. The element-kind registry — evaluation
// functions and port shapes — is immutable package state and is shared by
// construction.
//
// Clone exists for multi-tenant callers: a server running many simulations
// concurrently instantiates one clone per run, so no two runs ever observe
// the same *Circuit. See the facade's Simulate documentation for the
// sharing contract.
func (c *Circuit) Clone() *Circuit {
	cp := &Circuit{
		Name:      c.Name,
		Nodes:     append([]Node(nil), c.Nodes...),
		Elems:     append([]Element(nil), c.Elems...),
		ByName:    make(map[string]NodeID, len(c.ByName)),
		ElByName:  make(map[string]ElemID, len(c.ElByName)),
		totalCost: c.totalCost,
	}
	for name, id := range c.ByName {
		cp.ByName[name] = id
	}
	for name, id := range c.ElByName {
		cp.ElByName[name] = id
	}
	cp.structure.Store(c.structure.Load())
	if c.generators != nil {
		cp.generators = append([]ElemID(nil), c.generators...)
	}
	for i := range cp.Nodes {
		nd := &cp.Nodes[i]
		if nd.Fanout != nil {
			nd.Fanout = append([]PortRef(nil), nd.Fanout...)
		}
	}
	for i := range cp.Elems {
		el := &cp.Elems[i]
		el.circ = cp
		if el.In != nil {
			el.In = append([]NodeID(nil), el.In...)
		}
		if el.Out != nil {
			el.Out = append([]NodeID(nil), el.Out...)
		}
		el.Params = el.Params.clone()
	}
	return cp
}

// clone deep-copies the slice-valued parameter fields; scalar fields copy
// by value.
func (p Params) clone() Params {
	if p.Times != nil {
		p.Times = append([]Time(nil), p.Times...)
	}
	if p.Values != nil {
		p.Values = append([]logic.Value(nil), p.Values...)
	}
	if p.Mem != nil {
		p.Mem = append([]uint64(nil), p.Mem...)
	}
	return p
}

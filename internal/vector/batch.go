package vector

// The fused gate shapes: the 1- and 2-input gates and the 2:1 mux that
// dominate every gate-level netlist are not compiled one closure per
// element the way every other kind is (kernel.go). Instead the compiler
// collects all same-shaped gates of one (worker, level) slice into a
// single batch — a flat offset table over the struct-of-arrays
// value/unknown slabs — and the whole batch runs as one branch-free loop
// of word ops: no per-element call, no kind dispatch, no bounds-check
// chains through plane structs. The algebra is PlaneAnd/PlaneOr/PlaneXor/
// PlaneMux with the Readable() normalisation folded in, which the
// truth-table suite proves against the scalar registry.

import "parsim/internal/circuit"

// gateShape enumerates the fused batch loops. 1-input shapes store offset
// pairs (src, dst); 2-input shapes store triples (a, b, dst). Offsets are
// plane indices pre-multiplied by the plane word count, so the loops index
// the flat slabs directly.
type gateShape int

const (
	shapeBuf1 gateShape = iota // buf, 1-input or/xor (fold identity = L)
	shapeNot1                  // not, 1-input nor/xnor
	shapeAnd2
	shapeNand2
	shapeOr2
	shapeNor2
	shapeXor2
	shapeXnor2
	shapeMux2 // (sel, a, b, out) quadruples; sel repeats per bit column
	numShapes
)

// arity returns the number of offsets per batch entry.
func (sh gateShape) arity() int {
	switch sh {
	case shapeBuf1, shapeNot1:
		return 2
	case shapeMux2:
		return 4
	}
	return 3
}

// fusedShape classifies an element into a batch shape, or reports that it
// needs a real kernel. 1-input or-family gates reduce to buf/not (fold with
// the all-L identity), while 1-input and/nand keep compileGate's generic
// fold (its identity differs) and anything with three or more inputs folds
// in a kernel too.
func fusedShape(el *circuit.Element) (gateShape, bool) {
	switch len(el.In) {
	case 1:
		switch el.Kind {
		case circuit.KindBuf, circuit.KindOr, circuit.KindXor:
			return shapeBuf1, true
		case circuit.KindNot, circuit.KindNor, circuit.KindXnor:
			return shapeNot1, true
		}
	case 2:
		switch el.Kind {
		case circuit.KindAnd:
			return shapeAnd2, true
		case circuit.KindNand:
			return shapeNand2, true
		case circuit.KindOr:
			return shapeOr2, true
		case circuit.KindNor:
			return shapeNor2, true
		case circuit.KindXor:
			return shapeXor2, true
		case circuit.KindXnor:
			return shapeXnor2, true
		}
	case 3:
		// The 2:1 mux dominates datapath-heavy netlists (the microprocessor
		// is half mux2 by element count); its single-bit select broadcasts
		// over the data columns, so it batches as offset quadruples.
		if el.Kind == circuit.KindMux2 {
			return shapeMux2, true
		}
	}
	return 0, false
}

// gateBatch is one compiled batch: every same-shaped gate bit-column of a
// (worker, level) slice, run by a single specialized loop. The loop takes
// its offset table as an argument, so a schedule block (compile.go) runs
// one element-aligned stretch of it; it reads the cur-side slabs and
// writes the next-side slabs.
type gateBatch struct {
	shape gateShape
	offs  []int32
	loop  batchLoop
}

// batchLoop runs one shape's word ops over a run of its offset table.
type batchLoop func(offs []int32, cv, cu, nv, nu []uint64)

// run runs the whole batch.
func (b *gateBatch) run(cv, cu, nv, nu []uint64) { b.loop(b.offs, cv, cu, nv, nu) }

// compileBatch binds a shape's specialized loop to its offset table.
func compileBatch(sh gateShape, offs []int32, words int) gateBatch {
	b := gateBatch{shape: sh, offs: offs}
	switch sh {
	case shapeBuf1:
		b.loop = runCopy1(words, false)
	case shapeNot1:
		b.loop = runCopy1(words, true)
	case shapeAnd2:
		b.loop = runAnd2(words, false)
	case shapeNand2:
		b.loop = runAnd2(words, true)
	case shapeOr2:
		b.loop = runOr2(words, false)
	case shapeNor2:
		b.loop = runOr2(words, true)
	case shapeXor2:
		b.loop = runXor2(words, false)
	case shapeXnor2:
		b.loop = runXor2(words, true)
	case shapeMux2:
		b.loop = runMux2(words)
	}
	return b
}

// runCopy1: V' = V&^U (buf) or ^(V|U) (not), U' = U.
func runCopy1(words int, invert bool) batchLoop {
	if words == 1 {
		if invert {
			return func(offs []int32, cv, cu, nv, nu []uint64) {
				for i := 0; i < len(offs); i += 2 {
					a, o := offs[i], offs[i+1]
					av, au := cv[a], cu[a]
					nv[o] = ^(av | au)
					nu[o] = au
				}
			}
		}
		return func(offs []int32, cv, cu, nv, nu []uint64) {
			for i := 0; i < len(offs); i += 2 {
				a, o := offs[i], offs[i+1]
				av, au := cv[a], cu[a]
				nv[o] = av &^ au
				nu[o] = au
			}
		}
	}
	return func(offs []int32, cv, cu, nv, nu []uint64) {
		for i := 0; i < len(offs); i += 2 {
			a, o := int(offs[i]), int(offs[i+1])
			for wd := 0; wd < words; wd++ {
				av, au := cv[a+wd], cu[a+wd]
				if invert {
					nv[o+wd] = ^(av | au)
				} else {
					nv[o+wd] = av &^ au
				}
				nu[o+wd] = au
			}
		}
	}
}

// runAnd2: one = known-H lanes of both inputs, zero = known-L lanes of
// either; nand swaps one and zero.
func runAnd2(words int, invert bool) batchLoop {
	if words == 1 {
		return func(offs []int32, cv, cu, nv, nu []uint64) {
			for i := 0; i < len(offs); i += 3 {
				a, b, o := offs[i], offs[i+1], offs[i+2]
				av, au := cv[a], cu[a]
				bv, bu := cv[b], cu[b]
				one := (av &^ au) & (bv &^ bu)
				zero := ^(av | au) | ^(bv | bu)
				if invert {
					one, zero = zero, one
				}
				nv[o] = one
				nu[o] = ^(one | zero)
			}
		}
	}
	return func(offs []int32, cv, cu, nv, nu []uint64) {
		for i := 0; i < len(offs); i += 3 {
			a, b, o := int(offs[i]), int(offs[i+1]), int(offs[i+2])
			for wd := 0; wd < words; wd++ {
				av, au := cv[a+wd], cu[a+wd]
				bv, bu := cv[b+wd], cu[b+wd]
				one := (av &^ au) & (bv &^ bu)
				zero := ^(av | au) | ^(bv | bu)
				if invert {
					one, zero = zero, one
				}
				nv[o+wd] = one
				nu[o+wd] = ^(one | zero)
			}
		}
	}
}

// runOr2: one = known-H lanes of either input, zero = known-L lanes of
// both; nor swaps.
func runOr2(words int, invert bool) batchLoop {
	if words == 1 {
		return func(offs []int32, cv, cu, nv, nu []uint64) {
			for i := 0; i < len(offs); i += 3 {
				a, b, o := offs[i], offs[i+1], offs[i+2]
				av, au := cv[a], cu[a]
				bv, bu := cv[b], cu[b]
				one := (av &^ au) | (bv &^ bu)
				zero := ^(av | au) & ^(bv | bu)
				if invert {
					one, zero = zero, one
				}
				nv[o] = one
				nu[o] = ^(one | zero)
			}
		}
	}
	return func(offs []int32, cv, cu, nv, nu []uint64) {
		for i := 0; i < len(offs); i += 3 {
			a, b, o := int(offs[i]), int(offs[i+1]), int(offs[i+2])
			for wd := 0; wd < words; wd++ {
				av, au := cv[a+wd], cu[a+wd]
				bv, bu := cv[b+wd], cu[b+wd]
				one := (av &^ au) | (bv &^ bu)
				zero := ^(av | au) & ^(bv | bu)
				if invert {
					one, zero = zero, one
				}
				nv[o+wd] = one
				nu[o+wd] = ^(one | zero)
			}
		}
	}
}

// runMux2 is logic.PlaneMux with the Readable() normalisation folded in:
// a when sel is a known L, b when a known H; an unreadable select keeps the
// value a and b agree on and poisons the rest.
func runMux2(words int) batchLoop {
	if words == 1 {
		return func(offs []int32, cv, cu, nv, nu []uint64) {
			for i := 0; i < len(offs); i += 4 {
				s, a, b, o := offs[i], offs[i+1], offs[i+2], offs[i+3]
				sv, su := cv[s], cu[s]
				selH := sv &^ su
				selL := ^(sv | su)
				av, au := cv[a]&^cu[a], cu[a]
				bv, bu := cv[b]&^cu[b], cu[b]
				agree := ^(av ^ bv) &^ (au | bu)
				nv[o] = av&selL | bv&selH | av&agree&su
				nu[o] = au&selL | bu&selH | ^agree&su
			}
		}
	}
	return func(offs []int32, cv, cu, nv, nu []uint64) {
		for i := 0; i < len(offs); i += 4 {
			s, a, b, o := int(offs[i]), int(offs[i+1]), int(offs[i+2]), int(offs[i+3])
			for wd := 0; wd < words; wd++ {
				sv, su := cv[s+wd], cu[s+wd]
				selH := sv &^ su
				selL := ^(sv | su)
				av, au := cv[a+wd]&^cu[a+wd], cu[a+wd]
				bv, bu := cv[b+wd]&^cu[b+wd], cu[b+wd]
				agree := ^(av ^ bv) &^ (au | bu)
				nv[o+wd] = av&selL | bv&selH | av&agree&su
				nu[o+wd] = au&selL | bu&selH | ^agree&su
			}
		}
	}
}

// runXor2: both inputs known decide H/L by parity; any unknown poisons.
func runXor2(words int, invert bool) batchLoop {
	if words == 1 {
		return func(offs []int32, cv, cu, nv, nu []uint64) {
			for i := 0; i < len(offs); i += 3 {
				a, b, o := offs[i], offs[i+1], offs[i+2]
				u := cu[a] | cu[b]
				one := (cv[a] ^ cv[b]) &^ u
				zero := ^(cv[a] ^ cv[b]) &^ u
				if invert {
					one, zero = zero, one
				}
				nv[o] = one
				nu[o] = ^(one | zero)
			}
		}
	}
	return func(offs []int32, cv, cu, nv, nu []uint64) {
		for i := 0; i < len(offs); i += 3 {
			a, b, o := int(offs[i]), int(offs[i+1]), int(offs[i+2])
			for wd := 0; wd < words; wd++ {
				u := cu[a+wd] | cu[b+wd]
				one := (cv[a+wd] ^ cv[b+wd]) &^ u
				zero := ^(cv[a+wd] ^ cv[b+wd]) &^ u
				if invert {
					one, zero = zero, one
				}
				nv[o+wd] = one
				nu[o+wd] = ^(one | zero)
			}
		}
	}
}

package vector

import (
	"parsim/internal/circuit"
	"parsim/internal/logic"
)

// Bit-sliced kernels for the table-driven functional kinds (mul, alu, rom,
// ram). Until PR 6 these fell back to per-lane scalar evaluation; here each
// is restated as word-wide boolean arithmetic so all lanes of a plane word
// evaluate in a handful of instructions, matching the scalar registry
// semantics in internal/circuit/kind.go lane for lane:
//
//   - mul:  product mod 2^w via shift-and-add; a lane with any X/Z bit in
//     either operand poisons to all-X (logic.Mul).
//   - alu:  per-lane opcode decode into eight disjoint select masks; add/sub
//     ripple with whole-result unknown poisoning, and/or/xor per-bit logic
//     ops, shl1/shr1 raw plane shifts (preserving X/Z like Value.ShiftLeft),
//     pass-b via Z->X normalisation; unknown opcode lanes go all-X.
//   - rom:  a pruned walk over the address bits yields each addressed
//     entry with its lane mask (addrDecode); unknown or out-of-range
//     address lanes read all-X.
//   - ram:  wide-plane memory state, write-enable gated by the same rising
//     edge masks as the register batch, the same address walk on write and
//     read, unknown-address writes poison the whole memory in those lanes.

// compileMul builds the shift-and-add multiplier. For each set bit i of
// operand a the partial product b<<i is ripple-added into the accumulator,
// all lanes at once; partial products with shift >= w cannot affect the
// result mod 2^w and are skipped.
func compileMul(ins []span, out, w, words int) func(cur, next []logic.WidePlane) {
	a, aw := int(ins[0].off), int(ins[0].w)
	b, bw := int(ins[1].off), int(ins[1].w)
	res := make([]uint64, w)
	return func(cur, next []logic.WidePlane) {
		for wd := 0; wd < words; wd++ {
			var unk uint64
			for i := 0; i < aw; i++ {
				unk |= cur[a+i].U[wd]
			}
			for i := 0; i < bw; i++ {
				unk |= cur[b+i].U[wd]
			}
			for i := range res {
				res[i] = 0
			}
			top := aw
			if top > w {
				top = w
			}
			for i := 0; i < top; i++ {
				ai := cur[a+i].V[wd]
				if ai == 0 {
					continue
				}
				carry := uint64(0)
				for j := i; j < w; j++ {
					var bj uint64
					if j-i < bw {
						bj = cur[b+j-i].V[wd] & ai
					}
					s := res[j] ^ bj ^ carry
					carry = res[j]&bj | carry&(res[j]^bj)
					res[j] = s
				}
			}
			for i := 0; i < w; i++ {
				next[out+i].SetWord(wd, logic.Plane{V: res[i] &^ unk, U: unk})
			}
		}
	}
}

// compileAlu decodes the opcode planes into disjoint per-lane select masks
// (one per reachable opcode; lanes with any unknown opcode bit go all-X),
// computes every candidate result word-wide, and blends them under the
// masks. Opcodes beyond AluShr1 collapse onto pass-b, the scalar switch's
// default arm.
func compileAlu(ins []span, out, w, words int) func(cur, next []logic.WidePlane) {
	op, a, b := int(ins[0].off), int(ins[1].off), int(ins[2].off)
	opw := int(ins[0].w)
	nOps := 1 << uint(opw)
	if nOps > 8 {
		nOps = 8 // opcode input is 3 bits; wider would duplicate pass-b arms
	}
	addV := make([]uint64, w)
	subV := make([]uint64, w)
	sel := make([]uint64, nOps)
	var hm, lm [8]uint64
	return func(cur, next []logic.WidePlane) {
		for wd := 0; wd < words; wd++ {
			var unkOp uint64
			for i := 0; i < opw; i++ {
				r := cur[op+i].Word(wd).Readable()
				unkOp |= r.U
				hm[i], lm[i] = r.HMask(), r.LMask()
			}
			for k := range sel {
				m := ^unkOp
				for i := 0; i < opw; i++ {
					if k>>uint(i)&1 == 1 {
						m &= hm[i]
					} else {
						m &= lm[i]
					}
				}
				sel[k] = m
			}

			// Ripple add and sub over the bit columns; lanes with any
			// unknown operand bit poison (Value.Add/Sub semantics).
			var unkAB uint64
			for i := 0; i < w; i++ {
				unkAB |= cur[a+i].U[wd] | cur[b+i].U[wd]
			}
			addC, subC := uint64(0), ^uint64(0)
			for i := 0; i < w; i++ {
				av := cur[a+i].Word(wd).Readable().V
				bv := cur[b+i].Word(wd).Readable().V
				addV[i] = av ^ bv ^ addC
				addC = av&bv | addC&(av^bv)
				nb := ^bv
				subV[i] = av ^ nb ^ subC
				subC = av&nb | subC&(av^nb)
			}

			for i := 0; i < w; i++ {
				av := cur[a+i].Word(wd)
				bv := cur[b+i].Word(wd)
				var cand [8]logic.Plane
				cand[circuit.AluAdd] = logic.Plane{V: addV[i] &^ unkAB, U: unkAB}
				cand[circuit.AluSub] = logic.Plane{V: subV[i] &^ unkAB, U: unkAB}
				cand[circuit.AluAnd] = logic.PlaneAnd(av, bv)
				cand[circuit.AluOr] = logic.PlaneOr(av, bv)
				cand[circuit.AluXor] = logic.PlaneXor(av, bv)
				if i > 0 {
					cand[circuit.AluShl1] = cur[a+i-1].Word(wd) // raw: X/Z shift along
				}
				if i < w-1 {
					cand[circuit.AluShr1] = cur[a+i+1].Word(wd)
				}
				cand[circuit.AluPassB] = bv.Readable()
				res := logic.Plane{U: unkOp}
				for k := 0; k < nOps; k++ {
					ci := k
					if ci > int(circuit.AluPassB) {
						ci = int(circuit.AluPassB)
					}
					res.V |= cand[ci].V & sel[k]
					res.U |= cand[ci].U & sel[k]
				}
				next[out+i].SetWord(wd, res)
			}
		}
	}
}

// addrDecode enumerates, per plane word, the memory entries some lane
// addresses: a depth-first walk over the address bits, most significant
// first, carrying the mask of lanes that match the prefix so far. A prefix
// no lane selects is dropped, and so is one whose entries all lie at or
// past limit. A lane with an unknown address bit matches neither branch at
// that bit and so selects no entry. The cost is proportional to the number
// of distinct addresses in the word — one path when every lane drives the
// same address — and stays under 2 x entries word-ANDs when all differ.
type addrDecode struct {
	addr, aw int
	limit    uint64
	hm, lm   []uint64 // per address bit: the lanes where it is a known H / L
	stack    []addrPrefix
	sel      []addrSel
}

// addrPrefix is a pending walk node: the entries whose top address bits
// are e's, the low rem bits still open, selected by the lanes in m.
type addrPrefix struct {
	e, m uint64
	rem  int
}

// addrSel is one selected entry and the lanes that address it; the masks
// of one word's selections are disjoint.
type addrSel struct {
	e, m uint64
}

func newAddrDecode(addr, aw int, limit uint64) *addrDecode {
	return &addrDecode{addr: addr, aw: aw, limit: limit, hm: make([]uint64, aw), lm: make([]uint64, aw)}
}

// decode returns word wd's selections. The slice is reused by the next
// call.
func (d *addrDecode) decode(cur []logic.WidePlane, wd int) []addrSel {
	for i := 0; i < d.aw; i++ {
		p := cur[d.addr+i]
		v, u := p.V[wd], p.U[wd]
		d.hm[i], d.lm[i] = v&^u, ^(v | u)
	}
	d.sel = d.sel[:0]
	stack := append(d.stack[:0], addrPrefix{m: ^uint64(0), rem: d.aw})
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.e >= d.limit {
			continue // every entry under the prefix is out of range
		}
		if f.rem == 0 {
			d.sel = append(d.sel, addrSel{e: f.e, m: f.m})
			continue
		}
		b := f.rem - 1
		if m := f.m & d.hm[b]; m != 0 {
			stack = append(stack, addrPrefix{e: f.e | 1<<uint(b), m: m, rem: b})
		}
		if m := f.m & d.lm[b]; m != 0 {
			stack = append(stack, addrPrefix{e: f.e, m: m, rem: b})
		}
	}
	d.stack = stack
	return d.sel
}

// compileRom accumulates, per word, each addressed entry's value under its
// lane mask. Lanes selecting no entry — unknown address bits or an address
// beyond the contents — read all-X, matching evalRom.
func compileRom(el *circuit.Element, ins []span, out, w, words int) func(cur, next []logic.WidePlane) {
	mem := el.Params.Mem
	dec := newAddrDecode(int(ins[0].off), int(ins[0].w), uint64(len(mem)))
	resV := make([]uint64, w)
	return func(cur, next []logic.WidePlane) {
		for wd := 0; wd < words; wd++ {
			for i := range resV {
				resV[i] = 0
			}
			var covered uint64
			for _, s := range dec.decode(cur, wd) {
				covered |= s.m
				for i := 0; i < w; i++ {
					if mem[s.e]>>uint(i)&1 == 1 {
						resV[i] |= s.m
					}
				}
			}
			for i := 0; i < w; i++ {
				next[out+i].SetWord(wd, logic.Plane{V: resV[i], U: ^covered})
			}
		}
	}
}

// compileRam keeps the memory as wide planes — entries x data bits, every
// lane with its own contents — and evaluates write-then-read exactly as
// evalRam does: a rising clock edge with write-enable high stores the
// Z-normalised write data at the addressed entry per lane; a write at an
// unknown address poisons that lane's whole memory; reads blend the
// addressed entries, unknown-address lanes reading all-X.
func compileRam(el *circuit.Element, ins []span, out, w, words int) (func(cur, next []logic.WidePlane), []logic.WidePlane) {
	clk, we := int(ins[0].off), int(ins[1].off)
	addr, aw := int(ins[2].off), int(ins[2].w)
	wdata := int(ins[3].off)
	entries := 1 << uint(aw)

	// state: previous clock plane + entries x w memory planes, each lane
	// initialised from Params.Mem then all-X — Element.InitState per lane.
	prevClk := wideRow(1, words, logic.X)[0]
	mem := newPlaneBuf(entries*w, words).planes
	for e := 0; e < entries; e++ {
		var init logic.Value
		if e < len(el.Params.Mem) {
			init = logic.V(w, el.Params.Mem[e])
		} else {
			init = logic.AllX(w)
		}
		logic.BroadcastValueWide(mem[e*w:(e+1)*w], init)
	}

	state := append([]logic.WidePlane{prevClk}, mem...)

	dec := newAddrDecode(addr, aw, uint64(entries))
	resV := make([]uint64, w)
	resU := make([]uint64, w)
	run := func(cur, next []logic.WidePlane) {
		for wd := 0; wd < words; wd++ {
			c := cur[clk].Word(wd)
			edge := prevClk.Word(wd).LMask() & c.HMask()
			prevClk.SetWord(wd, c)
			sel := dec.decode(cur, wd)

			if wl := edge & cur[we].Word(wd).HMask(); wl != 0 {
				for _, s := range sel {
					m := wl & s.m
					if m == 0 {
						continue
					}
					for i := 0; i < w; i++ {
						q := mem[int(s.e)*w+i]
						q.SetWord(wd, logic.PlaneSelect(m, cur[wdata+i].Word(wd).Readable(), q.Word(wd)))
					}
				}
				var unkA uint64
				for i := 0; i < aw; i++ {
					unkA |= cur[addr+i].U[wd]
				}
				if poison := wl & unkA; poison != 0 {
					for _, q := range mem {
						q.V[wd] &^= poison
						q.U[wd] |= poison
					}
				}
			}

			for i := range resV {
				resV[i], resU[i] = 0, 0
			}
			var covered uint64
			for _, s := range sel {
				covered |= s.m
				for i := 0; i < w; i++ {
					q := mem[int(s.e)*w+i]
					resV[i] |= q.V[wd] & s.m
					resU[i] |= q.U[wd] & s.m
				}
			}
			for i := 0; i < w; i++ {
				next[out+i].SetWord(wd, logic.Plane{V: resV[i], U: resU[i] | ^covered})
			}
		}
	}
	return run, state
}

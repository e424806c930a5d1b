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
//   - rom:  per-entry address-match masks; unknown or out-of-range address
//     lanes read all-X.
//   - ram:  wide-plane memory state, write-enable gated by the same rising
//     edge masks as the DFF kernel, per-entry match masks on write and read,
//     unknown-address writes poison the whole memory in those lanes.

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

// matchMask returns the mask of lanes whose address equals entry e: the
// AND across address bits of that bit's H or L mask. Lanes with any
// unknown address bit match no entry.
func matchMask(cur []logic.WidePlane, addr, aw, wd int, e uint64) uint64 {
	m := ^uint64(0)
	for i := 0; i < aw; i++ {
		r := cur[addr+i].Word(wd).Readable()
		if e>>uint(i)&1 == 1 {
			m &= r.HMask()
		} else {
			m &= r.LMask()
		}
	}
	return m
}

// compileRom enumerates the ROM contents once per word, accumulating each
// entry's value under its address-match mask. Lanes matching no entry —
// unknown address bits or an address beyond the contents — read all-X,
// matching evalRom.
func compileRom(el *circuit.Element, ins []span, out, w, words int) func(cur, next []logic.WidePlane) {
	addr, aw := int(ins[0].off), int(ins[0].w)
	mem := el.Params.Mem
	limit := uint64(len(mem))
	if aw < 63 && uint64(1)<<uint(aw) < limit {
		limit = 1 << uint(aw)
	}
	resV := make([]uint64, w)
	return func(cur, next []logic.WidePlane) {
		for wd := 0; wd < words; wd++ {
			for i := range resV {
				resV[i] = 0
			}
			var covered uint64
			for e := uint64(0); e < limit; e++ {
				m := matchMask(cur, addr, aw, wd, e)
				if m == 0 {
					continue
				}
				covered |= m
				for i := 0; i < w; i++ {
					if mem[e]>>uint(i)&1 == 1 {
						resV[i] |= m
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
// Z-normalised write data at the matching entry per lane; a write at an
// unknown address poisons that lane's whole memory; reads blend entries
// under the same match masks, unknown-address lanes reading all-X.
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

	resV := make([]uint64, w)
	resU := make([]uint64, w)
	match := make([]uint64, entries)
	xw := logic.PlaneBroadcast(logic.X)
	run := func(cur, next []logic.WidePlane) {
		for wd := 0; wd < words; wd++ {
			c := cur[clk].Word(wd)
			edge := prevClk.Word(wd).LMask() & c.HMask()
			prevClk.SetWord(wd, c)

			var unkA uint64
			for i := 0; i < aw; i++ {
				unkA |= cur[addr+i].U[wd]
			}
			for e := range match {
				match[e] = matchMask(cur, addr, aw, wd, uint64(e))
			}

			if wl := edge & cur[we].Word(wd).HMask(); wl != 0 {
				poison := wl & unkA
				for e := 0; e < entries; e++ {
					m := wl & match[e]
					if m == 0 && poison == 0 {
						continue
					}
					for i := 0; i < w; i++ {
						q := mem[e*w+i].Word(wd)
						if m != 0 {
							q = logic.PlaneSelect(m, cur[wdata+i].Word(wd).Readable(), q)
						}
						if poison != 0 {
							q = logic.PlaneSelect(poison, xw, q)
						}
						mem[e*w+i].SetWord(wd, q)
					}
				}
			}

			for i := range resV {
				resV[i], resU[i] = 0, 0
			}
			var covered uint64
			for e := 0; e < entries; e++ {
				m := match[e]
				if m == 0 {
					continue
				}
				covered |= m
				for i := 0; i < w; i++ {
					q := mem[e*w+i].Word(wd)
					resV[i] |= q.V & m
					resU[i] |= q.U & m
				}
			}
			for i := 0; i < w; i++ {
				next[out+i].SetWord(wd, logic.Plane{V: resV[i], U: resU[i] | ^covered})
			}
		}
	}
	return run, state
}

package vector

import (
	"parsim/internal/circuit"
	"parsim/internal/logic"
)

// Fused registers: the dff and dffr elements of one (worker, level) slice
// are not compiled one closure each. The compiler collects them into a
// single regBatch — a flat table of plane indices plus one state slab — and
// the whole batch runs as one loop of word ops, the register counterpart of
// the gate batches in batch.go.
//
// Every register still keeps a state-only kernel entry at its place in the
// level's kernel list, whose state rows alias its part of the slab: the
// previous clock plane, then the q row. program.kernels() — the walk the
// checkpoint codec saves and restores kernel state in — therefore sees the
// same entries in the same order as when each register was its own
// closure, and the snapshot layout is unchanged. The batch runs from the
// entry of the slice's first register; the other entries have no run.

// regEntry is one register in plane coordinates.
type regEntry struct {
	clk, rst, d, out int32 // node plane indices; rst < 0 for a dff
	w                int32 // data width
	st               int32 // slab plane of the previous clock; the q row follows
}

// regBatch is every register of one (worker, level) slice.
type regBatch struct {
	regs  []regEntry
	words int
	// sv/su is the state slab, words per plane. iv/iu hold, per slab plane,
	// the dffr reset value's bit broadcast to every lane (zero for a dff,
	// whose reset mask is always empty, and for the clock planes).
	sv, su []uint64
	iv, iu []uint64
}

func isRegister(k circuit.Kind) bool {
	return k == circuit.KindDFF || k == circuit.KindDFFR
}

// compileRegs lowers the registers els of one slice. ks are their kernel
// entries, in the same order; compileRegs points each entry's state at the
// batch slab and hangs the batch's run on the first one.
func compileRegs(c *circuit.Circuit, els []*circuit.Element, ks []*kernel, lay layout, words int) {
	rb := &regBatch{words: words}
	planes := 0
	for _, el := range els {
		planes += 1 + c.Nodes[el.Out[0]].Width
	}
	rb.sv = make([]uint64, planes*words)
	rb.su = make([]uint64, planes*words)
	rb.iv = make([]uint64, planes)
	rb.iu = make([]uint64, planes)
	// Every lane of the previous clock and of q starts X, as
	// Element.InitState does.
	for i := range rb.su {
		rb.su[i] = ^uint64(0)
	}
	st := 0
	for j, el := range els {
		w := c.Nodes[el.Out[0]].Width
		r := regEntry{
			clk: lay.off[el.In[0]],
			rst: -1,
			d:   lay.off[el.In[len(el.In)-1]],
			out: lay.off[el.Out[0]],
			w:   int32(w),
			st:  int32(st),
		}
		if el.Kind == circuit.KindDFFR {
			r.rst = lay.off[el.In[1]]
			init := make([]logic.Plane, w)
			logic.BroadcastValue(init, el.Params.Init)
			for i, p := range init {
				rb.iv[st+1+i], rb.iu[st+1+i] = p.V, p.U
			}
		}
		rb.regs = append(rb.regs, r)
		for p := st; p <= st+w; p++ {
			lo, hi := p*words, (p+1)*words
			ks[j].state = append(ks[j].state, logic.WidePlane{V: rb.sv[lo:hi:hi], U: rb.su[lo:hi:hi]})
		}
		st += 1 + w
	}
	ks[0].run = rb.run
	if words == 1 {
		ks[0].run = rb.run1
	}
}

// run is the DFF kernel algebra over the whole batch: a rising edge (the
// previous clock a known L, the current one a known H) captures the
// Z-normalised data; a dffr's known-H reset then forces its reset value.
// q is both the held state and the output written to next. The per-word
// edge and reset masks are taken first, so each data bit then loads its
// planes once for all words; a register with neither in any lane — most
// of them on most steps — only copies q out.
func (rb *regBatch) run(cur, next []logic.WidePlane) {
	words, sv, su := rb.words, rb.sv, rb.su
	var edge, rstH [logic.MaxWideLanes / logic.MaxLanes]uint64
	for _, r := range rb.regs {
		clk := cur[r.clk]
		st := int(r.st) * words
		pv, pu := sv[st:st+words], su[st:st+words]
		var any uint64
		for wd := range pv {
			cv, cu := clk.V[wd], clk.U[wd]
			edge[wd] = ^(pv[wd] | pu[wd]) & cv &^ cu
			pv[wd], pu[wd] = cv, cu
			any |= edge[wd]
		}
		if r.rst >= 0 {
			rs := cur[r.rst]
			for wd := range pv {
				rstH[wd] = rs.V[wd] &^ rs.U[wd]
				any |= rstH[wd]
			}
		} else {
			clear(rstH[:words])
		}
		for i := int32(0); i < r.w; i++ {
			q := st + int(i+1)*words
			qv, qu := sv[q:q+words], su[q:q+words]
			if any != 0 {
				d := cur[r.d+i]
				ip := r.st + 1 + i
				iv, iu := rb.iv[ip], rb.iu[ip]
				for wd := range qv {
					e, rh := edge[wd], rstH[wd]
					v := (d.V[wd]&^d.U[wd])&e | qv[wd]&^e
					u := d.U[wd]&e | qu[wd]&^e
					qv[wd] = iv&rh | v&^rh
					qu[wd] = iu&rh | u&^rh
				}
			}
			o := next[r.out+i]
			copy(o.V, qv)
			copy(o.U, qu)
		}
	}
}

// run1 is run at one plane word, where the slab index of a plane is the
// plane itself and every mask is a single word.
func (rb *regBatch) run1(cur, next []logic.WidePlane) {
	sv, su := rb.sv, rb.su
	for _, r := range rb.regs {
		clk := cur[r.clk]
		cv, cu := clk.V[0], clk.U[0]
		st := int(r.st)
		edge := ^(sv[st] | su[st]) & cv &^ cu
		sv[st], su[st] = cv, cu
		var rstH uint64
		if r.rst >= 0 {
			rs := cur[r.rst]
			rstH = rs.V[0] &^ rs.U[0]
		}
		for i := int32(0); i < r.w; i++ {
			q := st + 1 + int(i)
			v, u := sv[q], su[q]
			if edge|rstH != 0 {
				d := cur[r.d+i]
				v = (d.V[0]&^d.U[0])&edge | v&^edge
				u = d.U[0]&edge | u&^edge
				v = rb.iv[q]&rstH | v&^rstH
				u = rb.iu[q]&rstH | u&^rstH
				sv[q], su[q] = v, u
			}
			o := next[r.out+i]
			o.V[0], o.U[0] = v, u
		}
	}
}

package logic

import (
	"fmt"
	"slices"
)

// LaneValues is the packed form of a batched run's per-lane node values:
// the (V, U) planes a lane engine holds, handed back as they are instead
// of one decoded Value per node per lane. Node n's bit b is plane
// off[n]+b, and plane p's lanes [64w, 64w+64) are word p*words+w of the
// value half and of the unknown half of one backing array, in Plane's
// encoding. A 256-lane node bit therefore costs 64 bytes where the decoded
// form spends 8 KiB. A node of width 0 is an unset slot and reads as the
// zero Value. A nil *LaneValues holds no lanes.
type LaneValues struct {
	lanes, words int
	off          []int32  // off[n] is node n's first plane; off[n+1]-off[n] its width
	v, u         []uint64 // value and unknown words: the halves of one backing array
}

// NewLaneValues returns lanes-wide values, every lane L, of nodes nodes,
// node n width(n) bits wide; a width of 0 leaves node n unset.
func NewLaneValues(lanes, nodes int, width func(n int) int) *LaneValues {
	words := PlaneWords(lanes)
	off := make([]int32, nodes+1)
	for n := 0; n < nodes; n++ {
		w := width(n)
		if w < 0 || w > MaxWidth {
			panic(fmt.Sprintf("logic: node %d width %d out of range [0,%d]", n, w, MaxWidth))
		}
		off[n+1] = off[n] + int32(w)
	}
	size := int(off[nodes]) * words
	back := make([]uint64, 2*size)
	return &LaneValues{lanes: lanes, words: words, off: off, v: back[:size:size], u: back[size:]}
}

// PackLanes packs rows, rows[k][n] being lane k's value of node n, the
// inverse of decoding every Lane. Every row must be as long as the first
// and give each node the width the first row gives it. No rows pack to
// nil.
func PackLanes(rows [][]Value) (*LaneValues, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	if len(rows) > MaxWideLanes {
		return nil, fmt.Errorf("logic: %d lanes, at most %d", len(rows), MaxWideLanes)
	}
	first := rows[0]
	lv := NewLaneValues(len(rows), len(first), func(n int) int { return first[n].Width() })
	for k, row := range rows {
		if len(row) != len(first) {
			return nil, fmt.Errorf("logic: lane %d has %d nodes, lane 0 has %d", k, len(row), len(first))
		}
		for n, v := range row {
			if v.Width() != first[n].Width() {
				return nil, fmt.Errorf("logic: lane %d node %d is %d bits wide, lane 0's is %d", k, n, v.Width(), first[n].Width())
			}
			lv.set(k, n, v)
		}
	}
	return lv, nil
}

// Lanes returns the lane count, 0 for nil.
func (lv *LaneValues) Lanes() int {
	if lv == nil {
		return 0
	}
	return lv.lanes
}

// Nodes returns the node count, 0 for nil.
func (lv *LaneValues) Nodes() int {
	if lv == nil {
		return 0
	}
	return len(lv.off) - 1
}

// Planes returns node n's value and unknown words, bit b's lane word w at
// index b*words+w: the layout of a lane engine's plane slabs, so a node's
// planes fill with one copy each. Writing them sets the node's values.
func (lv *LaneValues) Planes(n int) (v, u []uint64) {
	lo, hi := int(lv.off[n])*lv.words, int(lv.off[n+1])*lv.words
	return lv.v[lo:hi:hi], lv.u[lo:hi:hi]
}

// At returns node's value in lane.
func (lv *LaneValues) At(lane, node int) Value {
	lv.checkLane(lane)
	lo, hi := int(lv.off[node]), int(lv.off[node+1])
	var v Value
	v.width = uint8(hi - lo)
	p, sh := lo*lv.words+lane>>6, uint(lane&63)
	for i := 0; i < hi-lo; i, p = i+1, p+lv.words {
		vb, ub := lv.v[p]>>sh&1, lv.u[p]>>sh&1
		v.bits |= vb &^ ub << uint(i)
		v.unk |= ub &^ vb << uint(i)
		v.hiz |= vb & ub << uint(i)
	}
	return v
}

// Lane decodes lane k: one Value per node, indexed by node.
func (lv *LaneValues) Lane(k int) []Value {
	lv.checkLane(k)
	row := make([]Value, lv.Nodes())
	for n := range row {
		row[n] = lv.At(k, n)
	}
	return row
}

// Equal reports whether lv and o hold the same lane count, node widths
// and values in every lane. The unused lanes of a partial last word are
// not compared.
func (lv *LaneValues) Equal(o *LaneValues) bool {
	if lv == nil || o == nil {
		return lv == o
	}
	if lv.lanes != o.lanes || !slices.Equal(lv.off, o.off) {
		return false
	}
	mask := LaneMasks(lv.lanes)
	for i := range lv.v {
		if ((lv.v[i]^o.v[i])|(lv.u[i]^o.u[i]))&mask[i%lv.words] != 0 {
			return false
		}
	}
	return true
}

// set writes v, as wide as node, into lane, which still holds L.
func (lv *LaneValues) set(lane, node int, v Value) {
	bit := uint64(1) << uint(lane&63)
	p := int(lv.off[node])*lv.words + lane>>6
	for i := 0; i < int(v.width); i, p = i+1, p+lv.words {
		pos := uint64(1) << uint(i)
		if (v.bits|v.hiz)&pos != 0 {
			lv.v[p] |= bit
		}
		if (v.unk|v.hiz)&pos != 0 {
			lv.u[p] |= bit
		}
	}
}

func (lv *LaneValues) checkLane(lane int) {
	if lane < 0 || lane >= lv.Lanes() {
		panic(fmt.Sprintf("logic: lane %d out of range [0,%d)", lane, lv.Lanes()))
	}
}

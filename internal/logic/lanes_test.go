package logic

import "testing"

var (
	laneValueLanes  = []int{1, 63, 64, 65, 256}
	laneValueWidths = []int{1, 7, 64}
)

// nodePlanes views node n of lv as the wide bus ExtractLaneWide reads.
func nodePlanes(lv *LaneValues, n int) []WidePlane {
	v, u := lv.Planes(n)
	words := PlaneWords(lv.Lanes())
	ps := make([]WidePlane, len(v)/words)
	for b := range ps {
		ps[b] = WidePlane{V: v[b*words : (b+1)*words], U: u[b*words : (b+1)*words]}
	}
	return ps
}

// filledLaneValues returns lanes-wide values of one node per width in
// laneValueWidths, bit b of node n in lane l holding state
// (l+b+n+rot)%4, so four rotations put every state in every position.
func filledLaneValues(lanes, rot int) *LaneValues {
	states := []State{L, H, X, Z}
	lv := NewLaneValues(lanes, len(laneValueWidths), func(n int) int { return laneValueWidths[n] })
	for n := range laneValueWidths {
		for b, p := range nodePlanes(lv, n) {
			for l := 0; l < lanes; l++ {
				p.SetLane(l, states[(l+b+n+rot)%4])
			}
		}
	}
	return lv
}

// TestWideLaneValuesDecode: At and Lane read what ExtractLaneWide reads
// from the same planes, for every state in every lane of every bit.
func TestWideLaneValuesDecode(t *testing.T) {
	for _, lanes := range laneValueLanes {
		for rot := 0; rot < 4; rot++ {
			lv := filledLaneValues(lanes, rot)
			if lv.Lanes() != lanes || lv.Nodes() != len(laneValueWidths) {
				t.Fatalf("lanes %d: Lanes %d Nodes %d", lanes, lv.Lanes(), lv.Nodes())
			}
			for l := 0; l < lanes; l++ {
				row := lv.Lane(l)
				for n, w := range laneValueWidths {
					want := ExtractLaneWide(nodePlanes(lv, n), l, w)
					if got := lv.At(l, n); got != want {
						t.Fatalf("lanes %d rot %d: At(%d, %d) = %v, want %v", lanes, rot, l, n, got, want)
					}
					if row[n] != want {
						t.Fatalf("lanes %d rot %d: Lane(%d)[%d] = %v, want %v", lanes, rot, l, n, row[n], want)
					}
				}
			}
		}
	}
}

// TestWideLaneValuesEqual: Equal notices a one-bit change of V or U in
// any live lane of any node bit, and ignores the unused lanes of a
// partial last word.
func TestWideLaneValuesEqual(t *testing.T) {
	for _, lanes := range laneValueLanes {
		a, b := filledLaneValues(lanes, 1), filledLaneValues(lanes, 1)
		if !a.Equal(b) {
			t.Fatalf("lanes %d: equal fills compare unequal", lanes)
		}
		words := PlaneWords(lanes)
		for n := range laneValueWidths {
			v, u := b.Planes(n)
			for i := range v {
				for bit := 0; bit < 64; bit++ {
					live := (i%words)*64+bit < lanes
					for _, plane := range [][]uint64{v, u} {
						plane[i] ^= 1 << uint(bit)
						if a.Equal(b) == live {
							t.Fatalf("lanes %d node %d word %d bit %d (live %v): Equal = %v",
								lanes, n, i, bit, live, !live)
						}
						plane[i] ^= 1 << uint(bit)
					}
				}
			}
		}
		if a.Equal(filledLaneValues(lanes, 2)) {
			t.Fatalf("lanes %d: different fills compare equal", lanes)
		}
	}
	one := filledLaneValues(64, 0)
	narrow := NewLaneValues(64, 3, func(n int) int { return []int{1, 7, 63}[n] })
	for _, c := range []struct {
		a, b *LaneValues
		want bool
	}{
		{nil, nil, true},
		{one, nil, false},
		{nil, one, false},
		{one, filledLaneValues(65, 0), false},
		{narrow, NewLaneValues(64, 3, func(n int) int { return []int{1, 7, 64}[n] }), false},
	} {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("Equal(%d lanes %d nodes, %d lanes %d nodes) = %v, want %v",
				c.a.Lanes(), c.a.Nodes(), c.b.Lanes(), c.b.Nodes(), got, c.want)
		}
	}
}

// TestWideLaneValuesPack: packing the decoded rows gives back equal
// values, unset slots stay unset, and rows that disagree on shape are
// refused.
func TestWideLaneValuesPack(t *testing.T) {
	for _, lanes := range laneValueLanes {
		lv := filledLaneValues(lanes, 3)
		rows := make([][]Value, lanes)
		for l := range rows {
			rows[l] = lv.Lane(l)
		}
		got, err := PackLanes(rows)
		if err != nil {
			t.Fatalf("lanes %d: %v", lanes, err)
		}
		if !got.Equal(lv) {
			t.Fatalf("lanes %d: packed rows differ from the planes they were decoded from", lanes)
		}
	}

	unset, err := PackLanes([][]Value{{{}, V(4, 9)}, {{}, AllX(4)}})
	if err != nil {
		t.Fatal(err)
	}
	if got := unset.At(1, 0); got != (Value{}) {
		t.Errorf("unset slot reads %v", got)
	}
	if got := unset.At(1, 1); got != AllX(4) {
		t.Errorf("At(1, 1) = %v, want %v", got, AllX(4))
	}
	if lv, err := PackLanes(nil); lv != nil || err != nil || lv.Lanes() != 0 {
		t.Errorf("PackLanes(nil) = %v, %v", lv, err)
	}
	for _, rows := range [][][]Value{
		{{V(1, 0), V(2, 1)}, {V(1, 0)}},
		{{V(1, 0), V(2, 1)}, {V(1, 0), V(3, 1)}},
		{{V(1, 0)}, {{}}},
	} {
		if _, err := PackLanes(rows); err == nil {
			t.Errorf("PackLanes(%v) accepted rows of different shapes", rows)
		}
	}

	for _, lane := range []int{-1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d, 0) on 65 lanes did not panic", lane)
				}
			}()
			filledLaneValues(65, 0).At(lane, 0)
		}()
	}
}

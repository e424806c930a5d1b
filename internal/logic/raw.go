package logic

import "fmt"

// Raw exposes the three bit planes and the width of v for serialisation.
// The returned planes are in canonical form: pairwise disjoint and masked
// to the width. FromRaw is the inverse.
func (v Value) Raw() (bits, unk, hiz uint64, width uint8) {
	return v.bits, v.unk, v.hiz, v.width
}

// FromRaw rebuilds a Value from raw planes previously obtained via Raw.
// It rejects non-canonical input — out-of-range width, plane bits above the
// width, or overlapping planes — so corrupted or hand-crafted snapshots
// cannot smuggle in values that would break the == comparability invariant.
func FromRaw(bits, unk, hiz uint64, width uint8) (Value, error) {
	if width < 1 || width > MaxWidth {
		return Value{}, fmt.Errorf("logic: raw width %d out of range [1,%d]", width, MaxWidth)
	}
	m := mask(width)
	if bits&^m != 0 || unk&^m != 0 || hiz&^m != 0 {
		return Value{}, fmt.Errorf("logic: raw planes have bits above width %d", width)
	}
	// hiz dominates unk dominates bits: a canonical value keeps the
	// shadowed planes clear.
	if unk&hiz != 0 || bits&(unk|hiz) != 0 {
		return Value{}, fmt.Errorf("logic: raw planes overlap (non-canonical value)")
	}
	return Value{bits: bits, unk: unk, hiz: hiz, width: width}, nil
}

// Planes encodes v as two bit planes in the encoding Plane uses, bit i of
// v being the pair (V>>i&1, U>>i&1): (0,0)=L, (1,0)=H, (0,1)=X, (1,1)=Z.
// The width is left out; FromPlanes is the inverse given it.
func (v Value) Planes() (V, U uint64) {
	return v.bits | v.hiz, v.unk | v.hiz
}

// errPlanes is FromPlanes' refusal. A fixed error keeps FromPlanes small
// enough to inline into the event loops that decode with it.
var errPlanes = fmt.Errorf("logic: planes width out of range [1,%d] or bits above the width", MaxWidth)

// FromPlanes rebuilds a width-bit Value from planes obtained via Planes.
// Every pair is a valid state, so it rejects, like FromRaw, only an
// out-of-range width or plane bits above the width.
func FromPlanes(V, U uint64, width int) (Value, error) {
	if uint(width-1) >= MaxWidth || (V|U)>>uint(width) != 0 {
		return Value{}, errPlanes
	}
	return Value{bits: V &^ U, unk: U &^ V, hiz: V & U, width: uint8(width)}, nil
}

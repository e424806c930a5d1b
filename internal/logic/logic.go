// Package logic implements the four-state logic value system used by every
// simulator in this repository.
//
// A single wire carries one of four states: strong low (L), strong high (H),
// unknown (X) and high impedance (Z). Multi-bit buses (up to 64 bits wide)
// are first-class: a Value is a fixed-width vector of states stored in three
// bit planes, so bitwise gate operations over whole buses cost a handful of
// word operations. This matches the paper's need to simulate models "at
// different representation levels" — single-bit gates, RTL registers and
// functional blocks such as 8-bit adders share one value type.
package logic

import (
	"fmt"
	"strconv"
)

// State is the value of a single wire bit.
type State uint8

// The four wire states. The zero value is L so freshly allocated storage
// holds a legal (if arbitrary) state; simulators explicitly initialise nodes
// to X as the paper does ("node 4 is only known to be X at time 0").
const (
	L State = iota // strong 0
	H              // strong 1
	X              // unknown
	Z              // high impedance
)

// String returns the conventional single-character name of the state.
func (s State) String() string {
	switch s {
	case L:
		return "0"
	case H:
		return "1"
	case X:
		return "x"
	case Z:
		return "z"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Valid reports whether s is one of the four defined states.
func (s State) Valid() bool { return s <= Z }

// IsKnown reports whether s is a strong 0 or 1.
func (s State) IsKnown() bool { return s == L || s == H }

// MaxWidth is the widest supported bus.
const MaxWidth = 64

// Value is a fixed-width bus of States. The width is part of the value;
// operations on mismatched widths panic, which turns circuit wiring bugs
// into immediate failures instead of silent truncation.
//
// Representation: three planes indexed by bit position. A bit is Z if its
// hiz plane bit is set; otherwise X if its unk plane bit is set; otherwise
// the bits plane gives 0 or 1. Plane bits above the width are always zero
// (the canonical form), so Values are comparable with ==.
type Value struct {
	bits  uint64
	unk   uint64
	hiz   uint64
	width uint8
}

func mask(width uint8) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << width) - 1
}

func checkWidth(width int) uint8 {
	if width < 1 || width > MaxWidth {
		panic(fmt.Sprintf("logic: width %d out of range [1,%d]", width, MaxWidth))
	}
	return uint8(width)
}

// V returns a fully known value of the given width; bits above the width are
// discarded.
func V(width int, bits uint64) Value {
	w := checkWidth(width)
	return Value{bits: bits & mask(w), width: w}
}

// AllX returns a value of the given width with every bit unknown.
func AllX(width int) Value {
	w := checkWidth(width)
	return Value{unk: mask(w), width: w}
}

// AllZ returns a value of the given width with every bit high impedance.
func AllZ(width int) Value {
	w := checkWidth(width)
	return Value{hiz: mask(w), width: w}
}

// FromState returns a 1-bit value holding s.
func FromState(s State) Value {
	switch s {
	case L:
		return V(1, 0)
	case H:
		return V(1, 1)
	case X:
		return AllX(1)
	case Z:
		return AllZ(1)
	}
	panic("logic: invalid state " + s.String())
}

// FromStates builds a value from states, index 0 being the least significant
// bit.
func FromStates(states []State) Value {
	w := checkWidth(len(states))
	var v Value
	v.width = w
	for i, s := range states {
		bit := uint64(1) << uint(i)
		switch s {
		case H:
			v.bits |= bit
		case X:
			v.unk |= bit
		case Z:
			v.hiz |= bit
		case L:
		default:
			panic("logic: invalid state " + s.String())
		}
	}
	return v
}

// Width returns the bus width in bits.
func (v Value) Width() int { return int(v.width) }

// Bit returns the state of bit i (0 = least significant).
func (v Value) Bit(i int) State {
	if i < 0 || i >= int(v.width) {
		panic(fmt.Sprintf("logic: bit %d out of range for width %d", i, v.width))
	}
	bit := uint64(1) << uint(i)
	switch {
	case v.hiz&bit != 0:
		return Z
	case v.unk&bit != 0:
		return X
	case v.bits&bit != 0:
		return H
	default:
		return L
	}
}

// State returns the state of a 1-bit value.
func (v Value) State() State {
	if v.width != 1 {
		panic(fmt.Sprintf("logic: State on %d-bit value", v.width))
	}
	return v.Bit(0)
}

// IsKnown reports whether every bit is a strong 0 or 1.
func (v Value) IsKnown() bool { return v.unk == 0 && v.hiz == 0 }

// HasZ reports whether any bit is high impedance.
func (v Value) HasZ() bool { return v.hiz != 0 }

// Uint returns the bus interpreted as an unsigned integer. The second result
// is false if any bit is X or Z.
func (v Value) Uint() (uint64, bool) {
	if !v.IsKnown() {
		return 0, false
	}
	return v.bits, true
}

// MustUint is Uint for values known to be fully defined; it panics otherwise.
func (v Value) MustUint() uint64 {
	u, ok := v.Uint()
	if !ok {
		panic("logic: MustUint on partially unknown value " + v.String())
	}
	return u
}

// String formats the value Verilog-style, e.g. "4'b10xz", using hex when the
// value is fully known and wider than 4 bits.
func (v Value) String() string {
	var buf [MaxWidth + 8]byte
	return string(v.Append(buf[:0]))
}

// Append appends the String form of v to dst, for writers that format
// many values into one buffer.
func (v Value) Append(dst []byte) []byte {
	dst = strconv.AppendUint(dst, uint64(v.width), 10)
	if v.IsKnown() && v.width > 4 {
		dst = append(dst, '\'', 'h')
		return strconv.AppendUint(dst, v.bits, 16)
	}
	dst = append(dst, '\'', 'b')
	for i := int(v.width) - 1; i >= 0; i-- {
		dst = append(dst, "01xz"[v.Bit(i)])
	}
	return dst
}

// Equal reports whether two values have identical width and per-bit states.
// It is equivalent to == and exists for readability at call sites.
func (v Value) Equal(o Value) bool { return v == o }

// sameWidth panics unless the operands have equal widths.
func sameWidth(a, b Value, op string) {
	if a.width != b.width {
		panic(fmt.Sprintf("logic: %s width mismatch %d vs %d", op, a.width, b.width))
	}
}

// readable converts Z bits to X for input to a logic operation: a gate that
// samples a floating wire reads an unknown.
func (v Value) readable() Value {
	v.unk |= v.hiz
	v.hiz = 0
	return v
}

// Not returns the bitwise complement; X and Z bits yield X.
func (v Value) Not() Value {
	v = v.readable()
	return Value{bits: ^v.bits & mask(v.width) &^ v.unk, unk: v.unk, width: v.width}
}

// And returns the bitwise AND with controlling-value semantics: 0 AND x = 0,
// 1 AND x = x.
func (v Value) And(o Value) Value {
	sameWidth(v, o, "And")
	a, b := v.readable(), o.readable()
	// A result bit is 0 when either operand bit is a known 0; it is 1 when
	// both are known 1; otherwise X.
	knownA := mask(a.width) &^ a.unk
	knownB := mask(b.width) &^ b.unk
	zero := (knownA &^ a.bits) | (knownB &^ b.bits)
	one := (knownA & a.bits) & (knownB & b.bits)
	unk := mask(a.width) &^ (zero | one)
	return Value{bits: one, unk: unk, width: a.width}
}

// Or returns the bitwise OR with controlling-value semantics: 1 OR x = 1.
func (v Value) Or(o Value) Value {
	sameWidth(v, o, "Or")
	a, b := v.readable(), o.readable()
	knownA := mask(a.width) &^ a.unk
	knownB := mask(b.width) &^ b.unk
	one := (knownA & a.bits) | (knownB & b.bits)
	zero := (knownA &^ a.bits) & (knownB &^ b.bits)
	unk := mask(a.width) &^ (zero | one)
	return Value{bits: one, unk: unk, width: a.width}
}

// Xor returns the bitwise XOR; any X or Z input bit yields X.
func (v Value) Xor(o Value) Value {
	sameWidth(v, o, "Xor")
	a, b := v.readable(), o.readable()
	unk := a.unk | b.unk
	return Value{bits: (a.bits ^ b.bits) &^ unk, unk: unk, width: a.width}
}

// Nand returns Not(And).
func (v Value) Nand(o Value) Value { return v.And(o).Not() }

// Nor returns Not(Or).
func (v Value) Nor(o Value) Value { return v.Or(o).Not() }

// Xnor returns Not(Xor).
func (v Value) Xnor(o Value) Value { return v.Xor(o).Not() }

// Add returns v + o (mod 2^width). If any input bit is X or Z the entire
// result is X: functional blocks poison their outputs on unknown inputs,
// which is the conservative RTL-level behaviour the paper's functional
// elements use.
func (v Value) Add(o Value) Value {
	sameWidth(v, o, "Add")
	if !v.IsKnown() || !o.IsKnown() {
		return AllX(int(v.width))
	}
	return V(int(v.width), v.bits+o.bits)
}

// AddCarry returns the width-bit sum and the 1-bit carry out.
func (v Value) AddCarry(o Value, cin Value) (sum, cout Value) {
	sameWidth(v, o, "AddCarry")
	if cin.width != 1 {
		panic("logic: AddCarry carry-in must be 1 bit")
	}
	if !v.IsKnown() || !o.IsKnown() || !cin.IsKnown() {
		return AllX(int(v.width)), AllX(1)
	}
	total := v.bits + o.bits + cin.bits
	if v.width < 64 {
		return V(int(v.width), total), V(1, total>>v.width)
	}
	// 64-bit: detect carry via unsigned overflow.
	s := v.bits + o.bits
	carry := uint64(0)
	if s < v.bits {
		carry = 1
	}
	s2 := s + cin.bits
	if s2 < s {
		carry = 1
	}
	return V(64, s2), V(1, carry)
}

// Sub returns v - o (mod 2^width), poisoning on unknowns.
func (v Value) Sub(o Value) Value {
	sameWidth(v, o, "Sub")
	if !v.IsKnown() || !o.IsKnown() {
		return AllX(int(v.width))
	}
	return V(int(v.width), v.bits-o.bits)
}

// Mul returns v * o truncated to the given result width, poisoning on
// unknowns. Operand widths need not match the result width.
func Mul(a, b Value, resultWidth int) Value {
	if !a.IsKnown() || !b.IsKnown() {
		return AllX(resultWidth)
	}
	return V(resultWidth, a.bits*b.bits)
}

// Eq returns a 1-bit value: H if the values are provably equal, L if
// provably different (some known bit pair differs), X otherwise.
func (v Value) Eq(o Value) Value {
	sameWidth(v, o, "Eq")
	a, b := v.readable(), o.readable()
	knownBoth := mask(a.width) &^ (a.unk | b.unk)
	if (a.bits^b.bits)&knownBoth != 0 {
		return V(1, 0)
	}
	if knownBoth == mask(a.width) {
		return V(1, 1)
	}
	return AllX(1)
}

// Mux returns a when sel is 0, b when sel is 1. When sel is X or Z the
// result keeps the bits on which a and b agree and is X elsewhere.
func Mux(sel, a, b Value) Value {
	sameWidth(a, b, "Mux")
	switch sel.State() {
	case L:
		return a.readable()
	case H:
		return b.readable()
	default:
		ra, rb := a.readable(), b.readable()
		agree := ^(ra.bits ^ rb.bits) &^ (ra.unk | rb.unk) & mask(a.width)
		return Value{bits: ra.bits & agree, unk: mask(a.width) &^ agree, width: a.width}
	}
}

// Resolve merges two drivers of the same wire: Z yields to the other driver,
// agreement keeps the value, conflict or X produces X. This is the standard
// wired-bus resolution function.
func Resolve(a, b Value) Value {
	sameWidth(a, b, "Resolve")
	w := int(a.width)
	states := make([]State, w)
	for i := 0; i < w; i++ {
		sa, sb := a.Bit(i), b.Bit(i)
		switch {
		case sa == Z:
			states[i] = sb
		case sb == Z:
			states[i] = sa
		case sa == sb && sa != X:
			states[i] = sa
		default:
			states[i] = X
		}
	}
	return FromStates(states)
}

// Slice returns bits [lo, lo+width) as a new value. Slicing beyond the
// source width panics.
func (v Value) Slice(lo, width int) Value {
	if lo < 0 || width < 1 || lo+width > int(v.width) {
		panic(fmt.Sprintf("logic: slice [%d,%d) of %d-bit value", lo, lo+width, v.width))
	}
	w := uint8(width)
	return Value{
		bits:  (v.bits >> uint(lo)) & mask(w),
		unk:   (v.unk >> uint(lo)) & mask(w),
		hiz:   (v.hiz >> uint(lo)) & mask(w),
		width: w,
	}
}

// Concat returns the concatenation with hi in the upper bits and v in the
// lower bits.
func (v Value) Concat(hi Value) Value {
	total := int(v.width) + int(hi.width)
	w := checkWidth(total)
	return Value{
		bits:  v.bits | hi.bits<<v.width,
		unk:   v.unk | hi.unk<<v.width,
		hiz:   v.hiz | hi.hiz<<v.width,
		width: w,
	}
}

// Extend zero-extends (or truncates) the value to the given width. X/Z bits
// within the kept range are preserved; new high bits are 0.
func (v Value) Extend(width int) Value {
	w := checkWidth(width)
	m := mask(w)
	return Value{bits: v.bits & m, unk: v.unk & m, hiz: v.hiz & m, width: w}
}

// ReduceAnd folds AND across all bits of v, returning a 1-bit value.
func (v Value) ReduceAnd() Value {
	r := v.readable()
	if r.bits&^r.unk != mask(v.width)&^r.unk {
		return V(1, 0) // some known 0 bit
	}
	if r.unk != 0 {
		return AllX(1)
	}
	return V(1, 1)
}

// ReduceOr folds OR across all bits of v, returning a 1-bit value.
func (v Value) ReduceOr() Value {
	r := v.readable()
	if r.bits&^r.unk != 0 {
		return V(1, 1) // some known 1 bit
	}
	if r.unk != 0 {
		return AllX(1)
	}
	return V(1, 0)
}

// ReduceXor folds XOR across all bits; any unknown bit yields X.
func (v Value) ReduceXor() Value {
	r := v.readable()
	if r.unk != 0 {
		return AllX(1)
	}
	n := uint64(0)
	for b := r.bits; b != 0; b &= b - 1 {
		n++
	}
	return V(1, n&1)
}

// ShiftLeft returns v << n with zero fill.
func (v Value) ShiftLeft(n int) Value {
	if n < 0 {
		panic("logic: negative shift")
	}
	if n >= int(v.width) {
		return V(int(v.width), 0)
	}
	m := mask(v.width)
	return Value{
		bits:  v.bits << uint(n) & m,
		unk:   v.unk << uint(n) & m,
		hiz:   v.hiz << uint(n) & m,
		width: v.width,
	}
}

// ShiftRight returns v >> n with zero fill.
func (v Value) ShiftRight(n int) Value {
	if n < 0 {
		panic("logic: negative shift")
	}
	if n >= int(v.width) {
		return V(int(v.width), 0)
	}
	return Value{
		bits:  v.bits >> uint(n),
		unk:   v.unk >> uint(n),
		hiz:   v.hiz >> uint(n),
		width: v.width,
	}
}

package logic

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseValue parses the Verilog-style literal syntax String produces:
// "<width>'b<bits>" with bits over 01xz, "<width>'h<hex>" for fully known
// values, or "<width>'d<decimal>".
func ParseValue(s string) (Value, error) {
	tick := strings.IndexByte(s, '\'')
	if tick <= 0 || tick+2 > len(s) {
		return Value{}, fmt.Errorf("logic: bad value literal %q", s)
	}
	width, err := strconv.Atoi(s[:tick])
	if err != nil || width < 1 || width > MaxWidth {
		return Value{}, fmt.Errorf("logic: bad width in value literal %q", s)
	}
	base := s[tick+1]
	digits := s[tick+2:]
	if digits == "" {
		return Value{}, fmt.Errorf("logic: empty digits in value literal %q", s)
	}
	switch base {
	case 'b':
		if len(digits) != width {
			return Value{}, fmt.Errorf("logic: literal %q has %d digits for width %d", s, len(digits), width)
		}
		var buf [MaxWidth]State
		states := buf[:width]
		for i, ch := range digits {
			var st State
			switch ch {
			case '0':
				st = L
			case '1':
				st = H
			case 'x', 'X':
				st = X
			case 'z', 'Z':
				st = Z
			default:
				return Value{}, fmt.Errorf("logic: bad binary digit %q in %q", ch, s)
			}
			// Digits are written most-significant first.
			states[width-1-i] = st
		}
		return FromStates(states), nil
	case 'h':
		u, err := strconv.ParseUint(digits, 16, 64)
		if err != nil {
			return Value{}, fmt.Errorf("logic: bad hex literal %q: %v", s, err)
		}
		if width < 64 && u >= 1<<uint(width) {
			return Value{}, fmt.Errorf("logic: literal %q overflows width %d", s, width)
		}
		return V(width, u), nil
	case 'd':
		u, err := strconv.ParseUint(digits, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("logic: bad decimal literal %q: %v", s, err)
		}
		if width < 64 && u >= 1<<uint(width) {
			return Value{}, fmt.Errorf("logic: literal %q overflows width %d", s, width)
		}
		return V(width, u), nil
	}
	return Value{}, fmt.Errorf("logic: unknown base %q in value literal %q", base, s)
}

package logic

import (
	"math/rand"
	"testing"
)

func TestPlanesRoundTrip(t *testing.T) {
	// Width 1 holds the four states, each in the documented pair.
	for _, c := range []struct {
		s    State
		v, u uint64
	}{{L, 0, 0}, {H, 1, 0}, {X, 0, 1}, {Z, 1, 1}} {
		x := FromState(c.s)
		if v, u := x.Planes(); v != c.v || u != c.u {
			t.Errorf("%v encodes as (%d,%d), want (%d,%d)", c.s, v, u, c.v, c.u)
		}
		if got, err := FromPlanes(c.v, c.u, 1); err != nil || got != x {
			t.Errorf("FromPlanes(%d,%d,1) = %v, %v; want %v", c.v, c.u, got, err, x)
		}
	}
	// Random canonical values at every width, with width 64's full mask
	// in every plane.
	rng := rand.New(rand.NewSource(1))
	for w := 1; w <= MaxWidth; w++ {
		m := mask(uint8(w))
		vals := []Value{V(w, m), AllX(w), AllZ(w)}
		for i := 0; i < 200; i++ {
			hiz := rng.Uint64() & rng.Uint64() & m
			unk := rng.Uint64() & rng.Uint64() & m &^ hiz
			bits := rng.Uint64() & m &^ (unk | hiz)
			x, err := FromRaw(bits, unk, hiz, uint8(w))
			if err != nil {
				t.Fatal(err)
			}
			vals = append(vals, x)
		}
		for _, x := range vals {
			v, u := x.Planes()
			if got, err := FromPlanes(v, u, w); err != nil || got != x {
				t.Fatalf("width %d: %v round-trips to %v, %v", w, x, got, err)
			}
		}
	}
	// Like FromRaw, a bit above the width or an out-of-range width is
	// refused.
	for _, c := range []struct {
		v, u  uint64
		width int
	}{{2, 0, 1}, {0, 1 << 5, 5}, {1 << 63, 1 << 63, 63}, {0, 0, 0}, {0, 0, MaxWidth + 1}, {0, 0, -1}} {
		if got, err := FromPlanes(c.v, c.u, c.width); err == nil {
			t.Errorf("FromPlanes(%#x,%#x,%d) = %v, want an error", c.v, c.u, c.width, got)
		}
		if _, err := FromRaw(c.v, c.u, 0, uint8(c.width)); err == nil {
			t.Errorf("FromRaw accepts (%#x,%#x,0) at width %d, which FromPlanes refuses", c.v, c.u, c.width)
		}
	}
}

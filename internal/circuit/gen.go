package circuit

import (
	"sort"

	"parsim/internal/logic"
)

// Generator elements have no inputs: their output is a pure function of
// simulation time. That is exactly the property the asynchronous algorithm
// exploits ("the value of node 1 at any particular instant can be determined
// by calling the code that models gen for that particular instant"), and it
// also lets the event-driven simulators schedule generator changes lazily.

// GenValueAt returns the generator's output value at time t >= 0.
func (el *Element) GenValueAt(t Time) logic.Value {
	switch el.Kind {
	case KindConst:
		return el.Params.Init
	case KindClock:
		return clockValueAt(&el.Params, t)
	case KindWave:
		return waveValueAt(el, t)
	case KindRand:
		return randValueAt(el, t)
	case KindGray:
		return grayValueAt(el, t)
	}
	panic("circuit: GenValueAt on non-generator element " + el.Name)
}

// GenNextChange returns the earliest time strictly after t at which the
// generator's output may change. ok is false if the output is constant for
// all later time.
func (el *Element) GenNextChange(t Time) (next Time, ok bool) {
	switch el.Kind {
	case KindConst:
		return 0, false
	case KindClock:
		return clockNextChange(&el.Params, t), true
	case KindWave:
		return waveNextChange(el, t)
	case KindRand, KindGray:
		p := el.Params.Period
		if t < 0 {
			return 0, true
		}
		return (t/p + 1) * p, true
	}
	panic("circuit: GenNextChange on non-generator element " + el.Name)
}

// GenWaveform materialises the generator's output over [0, horizon) — the
// asynchronous engines' initialisation, "evaluate all generator and
// constant nodes for all time". emit sees each change against the all-X
// reset: the first known value, then every value that differs from the
// one before. stop is polled before each candidate change time, because a
// generator can span a huge horizon and a cancelled run must not wait for
// it.
func (el *Element) GenWaveform(horizon Time, stop func() bool, emit func(t Time, v logic.Value)) {
	last := logic.AllX(el.outWidth(0))
	for t := Time(0); t < horizon && !stop(); {
		if v := el.GenValueAt(t); !v.Equal(last) {
			last = v
			emit(t, v)
		}
		next, ok := el.GenNextChange(t)
		if !ok {
			return
		}
		t = next
	}
}

func clockDuty(p *Params) Time {
	if p.Duty != 0 {
		return p.Duty
	}
	return p.Period / 2
}

func clockValueAt(p *Params, t Time) logic.Value {
	if t < p.Phase {
		return logic.V(1, 0)
	}
	if (t-p.Phase)%p.Period < clockDuty(p) {
		return logic.V(1, 1)
	}
	return logic.V(1, 0)
}

func clockNextChange(p *Params, t Time) Time {
	if t < p.Phase {
		return p.Phase
	}
	into := (t - p.Phase) % p.Period
	base := t - into
	if into < clockDuty(p) {
		return base + clockDuty(p) // next falling edge
	}
	return base + p.Period // next rising edge
}

func waveValueAt(el *Element, t Time) logic.Value {
	p := &el.Params
	// Index of the last change at or before t.
	i := sort.Search(len(p.Times), func(i int) bool { return p.Times[i] > t }) - 1
	if i < 0 {
		return logic.AllX(el.outWidth(0))
	}
	return p.Values[i]
}

func waveNextChange(el *Element, t Time) (Time, bool) {
	p := &el.Params
	i := sort.Search(len(p.Times), func(i int) bool { return p.Times[i] > t })
	if i == len(p.Times) {
		return 0, false
	}
	return p.Times[i], true
}

// splitmix64 is a tiny stateless PRNG: randValueAt needs random access by
// period index so that every simulator sees the same stimulus regardless of
// the order in which it asks.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// grayValueAt walks a Gray-code sequence: exactly one output bit changes at
// every period boundary, the lowest-activity stimulus possible. Seed offsets
// the starting point so several generators stay decorrelated.
func grayValueAt(el *Element, t Time) logic.Value {
	if t < 0 {
		return logic.AllX(el.outWidth(0))
	}
	idx := uint64(t/el.Params.Period) + uint64(el.Params.Seed)
	return logic.V(el.outWidth(0), idx^(idx>>1))
}

func randValueAt(el *Element, t Time) logic.Value {
	if t < 0 {
		return logic.AllX(el.outWidth(0))
	}
	idx := uint64(t / el.Params.Period)
	h := splitmix64(uint64(el.Params.Seed) ^ splitmix64(idx))
	return logic.V(el.outWidth(0), h)
}

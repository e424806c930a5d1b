//go:build asyncdebug

package core

import (
	"fmt"
	"strings"
	"testing"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/gen"
)

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, want) {
			t.Errorf("panic %q, want one containing %q", r, want)
		}
	}()
	f()
}

func TestInvariantChecksFire(t *testing.T) {
	var h history
	h.setValid(10)
	h.setValid(10)
	mustPanic(t, "valid-time moved back from 10 to 9", func() { h.setValid(9) })
	checkBelow("consumed event time", 4, 5)
	mustPanic(t, "consumed event time 5 at or past the loaded bound 5", func() { checkBelow("consumed event time", 5, 5) })
	b := new(block)
	poison(b[:])
	b[1].t = 7
	checkWritten(b[1].t)
	mustPanic(t, "a cursor read an event slot no writer filled this run", func() { checkWritten(b[0].t) })
	s := newSim(gen.FeedbackChain(5), engine.Config{Workers: 2, Horizon: 10}, async)
	var e circuit.ElemID
	for s.c.Elems[e].IsGenerator() {
		e++
	}
	owner := s.ctl[e].owner
	mustPanic(t, fmt.Sprintf("worker %d queued element %d owned by worker %d", 1-owner, e, owner), func() { s.workers[1-owner].queue(e) })
}

//go:build asyncdebug

package core

import (
	"fmt"
	"math"

	"parsim/internal/circuit"
)

// The asyncdebug build checks the engine's in-flight invariants where they
// could break and panics naming the broken one; the default build
// (nodebug.go) compiles the checks away. `make async-test` runs the package
// suite and the FuzzEngines corpus under this tag.

// setValid stores a node's new valid-time, which must not be below the one
// it replaces: a consumer that loaded the old value may already have
// consumed events up to it.
func (h *history) setValid(v int64) {
	if old := h.validTo.Swap(v); v < old {
		panic(fmt.Sprintf("core: valid-time moved back from %d to %d", old, v))
	}
}

// checkBelow panics unless v < bound. An activation consumes an event only
// below the valid-time bound it loaded (the minimum over its inputs, or the
// event's own node's valid-time for the controlling-value skip), and a
// cursor reads a slot only below the published count it loaded.
func checkBelow(what string, v, bound int64) {
	if v >= bound {
		panic(fmt.Sprintf("core: %s %d at or past the loaded bound %d", what, v, bound))
	}
}

// checkOwner panics unless worker w owns element e: only an element's owner
// reads or writes its queued flag, and only the owner evaluates it.
func (w *worker) checkOwner(what string, e circuit.ElemID) {
	if owner := w.s.ctl[e].owner; int(owner) != w.id {
		panic(fmt.Sprintf("core: worker %d %s element %d owned by worker %d", w.id, what, e, owner))
	}
}

// poisonTime marks a slot no event was written to since its block was
// handed out.
const poisonTime = circuit.Time(math.MinInt64)

// poison fills event slots a run is about to write — a block about to be
// carved, or a run state's first chunks — with poisonTime, so that
// checkWritten catches a read of a slot this run never wrote: a stale event
// of a run that used the slots before, or a fresh block's zeros.
func poison(evs []event) {
	for i := range evs {
		evs[i].t = poisonTime
	}
}

// checkWritten panics if a consumed slot holds poisonTime.
func checkWritten(t circuit.Time) {
	if t == poisonTime {
		panic("core: a cursor read an event slot no writer filled this run")
	}
}

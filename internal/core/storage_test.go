package core

import (
	"context"
	"runtime"
	"testing"
	"unsafe"
	"weak"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/gen"
	"parsim/internal/logic"
)

// chunkRefs returns weak pointers to every chunk of a history from c on,
// except the tail the writer still holds.
func chunkRefs(c *hchunk, tail *hchunk) []weak.Pointer[hchunk] {
	var refs []weak.Pointer[hchunk]
	for ; c != tail; c = c.next {
		refs = append(refs, weak.Make(c))
	}
	return refs
}

func TestConsumedHistoryIsCollected(t *testing.T) {
	// A clock drives inv1, whose output mid has inv2 as its only consumer.
	// Driving the two by hand, once inv2 has consumed mid's whole history
	// nothing but mid's tail may keep a chunk of it alive — not the run
	// state, and not another node's storage (the constant's one event).
	bld := circuit.NewBuilder("collect")
	clk, mid, out, k := bld.Bit("clk"), bld.Bit("mid"), bld.Bit("out"), bld.Bit("k")
	bld.Clock("clock", clk, 2, 0, 1)
	inv1 := bld.Gate(circuit.KindNot, "inv1", 1, mid, clk)
	inv2 := bld.Gate(circuit.KindNot, "inv2", 1, out, mid)
	bld.Const("konst", k, logic.V(1, 0))
	c := bld.MustBuild()

	s := newSim(c, engine.Config{Workers: 1, Horizon: 1000}, async)
	w := s.workers[0]
	first := weak.Make(s.cursors[inv2][0].chunk)
	w.process(inv1)
	refs := chunkRefs(s.cursors[inv2][0].chunk, s.hist[mid].tail)
	if len(refs) < 5 {
		t.Fatalf("mid's history spans %d chunks besides its tail; the test needs several", len(refs))
	}
	w.process(inv2)
	if got, want := s.cursors[inv2][0].pos, s.hist[mid].count.Load(); got != want {
		t.Fatalf("inv2 consumed %d of %d events", got, want)
	}
	runtime.GC()
	runtime.GC()
	if first.Value() != nil {
		t.Error("mid's first chunk survived its only consumer")
	}
	for i, r := range refs {
		if r.Value() != nil {
			t.Errorf("mid's chunk %d of %d survived its only consumer", i, len(refs))
		}
	}
	runtime.KeepAlive(s)
}

// runAlloc reports the bytes a one-worker run allocates (the least of three)
// and the events it stores.
func runAlloc(c *circuit.Circuit, horizon circuit.Time) (bytes uint64, events int64) {
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		r, _ := engine.Run(context.Background(), c, engine.Config{Engine: "asynchronous", Workers: 1, Horizon: horizon})
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; i == 0 || b < bytes {
			bytes = b
		}
		events = r.Stats.NodeUpdates
	}
	return bytes, events
}

func TestHistoryAllocationPerEvent(t *testing.T) {
	// Event storage comes in blocks of blockSz events shared by all the
	// nodes a worker writes, so what a run allocates beyond a zero-length
	// run of the same circuit grows with the events it stores: sizeof(event)
	// each, plus the doubling slack of histories still growing and one small
	// header per chunk — not with an eager first chunk per node or a
	// full-size chunk per overflow. Most of mult16-gate's nodes see a
	// handful of events.
	c := gen.GateMultiplier(gen.DefaultMultiplier())
	fixed, _ := runAlloc(c, 0)
	total, events := runAlloc(c, 512)
	perEvent := float64(total-fixed) / float64(events)
	if limit := 1.5 * float64(unsafe.Sizeof(event{})); perEvent > limit {
		t.Errorf("%.1f B allocated per stored event (%d events, %d B over a zero-length run), want <= %.0f",
			perEvent, events, total-fixed, limit)
	}
	t.Logf("%d events, %.1f B per event", events, perEvent)
}

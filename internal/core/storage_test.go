package core

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
	"weak"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/gen"
	"parsim/internal/logic"
	"parsim/internal/trace"
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

// raceEnabled reports a -race build (see race_test.go).
var raceEnabled bool

// drainFreeBlocks empties the free list and returns what it held. It sees
// every block only on one P (see onOneP): Get never looks into another P's
// private slot.
func drainFreeBlocks() []*block {
	var bs []*block
	for {
		b, _ := freeBlocks.Get().(*block)
		if b == nil {
			return bs
		}
		bs = append(bs, b)
	}
}

// onOneP runs f on one P with the collector off, so that every block a run
// carves is still alive when the run hands it back, and drainFreeBlocks
// finds every block on the free list.
func onOneP(f func()) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
}

func TestConsumedHistoryIsCollected(t *testing.T) {
	// A clock drives inv1, whose output mid has inv2 as its only consumer.
	// Driving the two by hand, once inv2 has consumed mid's whole history
	// nothing but mid's tail may keep a chunk of it alive — not the run
	// state, not another node's storage (the constant's one event), not the
	// worker's record of its blocks and not the free list the blocks came
	// from — so a block holding only consumed chunks is freed mid-run.
	bld := circuit.NewBuilder("collect")
	clk, mid, out, k := bld.Bit("clk"), bld.Bit("mid"), bld.Bit("out"), bld.Bit("k")
	bld.Clock("clock", clk, 2, 0, 1)
	inv1 := bld.Gate(circuit.KindNot, "inv1", 1, mid, clk)
	inv2 := bld.Gate(circuit.KindNot, "inv2", 1, out, mid)
	bld.Const("konst", k, logic.V(1, 0))
	c := bld.MustBuild()
	cfg := engine.Config{Workers: 1, Horizon: 5000}

	// On one P, so that the free list hands the run below what the finished
	// run put on it (a change of GOMAXPROCS drops what a sync.Pool holds);
	// the collector runs only where the test calls it.
	onOneP(func() {
		// A finished run of the same circuit fills the free list, so the run
		// below carves blocks that list held.
		if _, err := async.Run(context.Background(), c, cfg); err != nil {
			t.Fatal(err)
		}
		listed := drainFreeBlocks()
		for _, b := range listed {
			freeBlocks.Put(b)
		}
		s := newSim(c, cfg, async)
		w := s.workers[0]
		first := weak.Make(s.cursors[inv2][0].chunk)
		w.process(inv1)
		refs := chunkRefs(s.cursors[inv2][0].chunk, s.hist[mid].tail)
		if len(refs) < 5 {
			t.Fatalf("mid's history spans %d chunks besides its tail; the test needs several", len(refs))
		}
		blocks := slices.Clone(w.blocks)
		if len(blocks) < 4 {
			t.Fatalf("the run carved %d blocks; the test needs some holding only mid's consumed chunks", len(blocks))
		}
		reused := 0
		for _, r := range blocks {
			if slices.Contains(listed, r.Value()) {
				reused++
			}
		}
		if reused == 0 {
			t.Fatalf("the run carved none of the %d blocks the finished run handed back", len(listed))
		}
		listed = nil
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
		gone := 0
		for _, r := range blocks {
			if r.Value() == nil {
				gone++
			}
		}
		if gone == 0 {
			t.Errorf("all %d event blocks survived the consumption of every chunk but the tails", len(blocks))
		}
		t.Logf("%d of %d blocks (%d from the free list) collected mid-run", gone, len(blocks), reused)
		runtime.KeepAlive(s)
	})
}

// coldRunAlloc reports the bytes a one-worker run allocates with an empty
// free list (the least of three) and the events it stores.
func coldRunAlloc(c *circuit.Circuit, horizon circuit.Time) (bytes uint64, events int64) {
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.GC() // two collections empty the free list
		runtime.GC()
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
	// nodes a worker writes, so what a cold run allocates beyond a
	// zero-length run of the same circuit grows with the events it stores:
	// sizeof(event) each, plus the doubling slack of histories still growing
	// and one small header per chunk — not with an eager first chunk per
	// node or a full-size chunk per overflow. Most of mult16-gate's nodes
	// see a handful of events.
	c := gen.GateMultiplier(gen.DefaultMultiplier())
	fixed, _ := coldRunAlloc(c, 0)
	total, events := coldRunAlloc(c, 512)
	perEvent := float64(total-fixed) / float64(events)
	if limit := 1.5 * float64(unsafe.Sizeof(event{})); perEvent > limit {
		t.Errorf("%.1f B allocated per stored event (%d events, %d B over a zero-length run), want <= %.0f",
			perEvent, events, total-fixed, limit)
	}
	t.Logf("%d events, %.1f B per event in a cold run", events, perEvent)

	// Under the race detector sync.Pool drops a random quarter of what it
	// is given, so there a warm run makes blocks by design.
	if raceEnabled {
		return
	}
	// A second run of the same circuit carves only the blocks the first one
	// handed back. With the collector off every block a run carves is alive
	// at its end and goes back to the list, so a block the warm run made
	// would show up there.
	onOneP(func() {
		drainFreeBlocks()
		engine.Run(context.Background(), c, engine.Config{Engine: "asynchronous", Workers: 1, Horizon: 512})
		cold := drainFreeBlocks()
		if len(cold) == 0 {
			t.Fatal("the cold run handed back no block")
		}
		for _, b := range cold {
			freeBlocks.Put(b)
		}
		engine.Run(context.Background(), c, engine.Config{Engine: "asynchronous", Workers: 1, Horizon: 512})
		warm := drainFreeBlocks()
		if !sameBlocks(cold, warm) {
			t.Errorf("the warm run handed back %d blocks, not the cold run's %d: it made new ones", len(warm), len(cold))
		}
	})
}

// sameBlocks reports whether a and b hold the same blocks in any order.
func sameBlocks(a, b []*block) bool {
	if len(a) != len(b) {
		return false
	}
	in := make(map[*block]bool, len(a))
	for _, x := range a {
		in[x] = true
	}
	for _, x := range b {
		if !in[x] {
			return false
		}
	}
	return true
}

func TestRunsSharingBlocksStayExact(t *testing.T) {
	// Four goroutines run ten jobs each, so that one run carves blocks
	// another has just handed back while others still run: the paper
	// circuits at one and two workers, under both disciplines, and one run
	// cancelled mid-way whose blocks go back with stale events in them.
	// Every finished run must reproduce the sequential oracle's histories
	// and finals. Under asyncdebug a reused block is poisoned, and a cursor
	// reading a slot no writer filled this run panics.
	cases := benchCircuits()
	type oracle struct {
		final []logic.Value
		hist  *trace.Recorder
	}
	want := make([]oracle, len(cases))
	for i, bc := range cases {
		rec := trace.NewRecorder()
		want[i] = oracle{simulate(t, "sequential", bc.c, engine.Config{Horizon: bc.horizon, Probe: rec}).Final, rec}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				k := 10*g + j
				i := k % len(cases)
				bc := cases[i]
				rec := trace.NewRecorder()
				cfg := engine.Config{Engine: "asynchronous", Workers: 1 + k/len(cases)%2, Horizon: bc.horizon, Probe: rec}
				if k%8 == 5 {
					cfg.Engine = "chandy-misra"
				}
				ctx, cancel := context.WithCancel(context.Background())
				if k == 13 {
					var changes atomic.Int64
					cfg.Probe = onChange(func(circuit.NodeID, circuit.Time, logic.Value) {
						if changes.Add(1) == 2000 {
							cancel()
						}
					})
				}
				r, err := engine.Run(ctx, bc.c, cfg)
				cancel()
				switch {
				case k == 13 && errors.Is(err, context.Canceled):
					t.Logf("job 13 cancelled after %d updates", r.Stats.NodeUpdates)
					continue
				case err != nil:
					t.Errorf("job %d (%s, %s, P=%d): %v", k, bc.c.Name, cfg.Engine, cfg.Workers, err)
					continue
				case k == 13:
					continue // finished before the cancellation reached it; no history recorded
				}
				if d := trace.Diff(bc.c, want[i].hist, rec); d != "" {
					t.Errorf("job %d (%s, %s, P=%d): history mismatch: %s", k, bc.c.Name, cfg.Engine, cfg.Workers, d)
				}
				if !slices.Equal(r.Final, want[i].final) {
					t.Errorf("job %d (%s, %s, P=%d): finals differ from sequential", k, bc.c.Name, cfg.Engine, cfg.Workers)
				}
			}
		}()
	}
	wg.Wait()
}

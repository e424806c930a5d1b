package parsim

import (
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzEngines is the cross-engine differential fuzz harness: every fuzz
// input decodes into a (seed, size, horizon, workers, lanes, jitLanes)
// tuple, the tuple selects a random unit-delay circuit, and every
// registered engine — including the batched vector engine's lane 0 at a
// randomized plane width (64, 256 or 1024 lanes, i.e. 1, 4 or 16 words per
// plane) and the codegen engine's lane 0 at a randomized width of its own
// (1, 64 or 256 lanes, covering both its scalar table-kind fallback and
// its multi-word fused batches) — must reproduce the sequential reference
// simulator's node history event for event and its final node values bit
// for bit.
//
// One refusal is legal: the conservative asynchronous pair may return the
// structured ErrStalled self-report on circuits whose feedback loops never
// receive events (their valid-times cannot advance through such a loop —
// the known limitation the supervision layer's stall report exists for;
// testdata/fuzz/FuzzEngines/stall-asym pins one such circuit). Any silent
// divergence, panic, or other error still fails the harness.
//
// The checked-in corpus under testdata/fuzz/FuzzEngines replays on every
// plain `go test` run, so `make check` (and its -race leg) exercises the
// full differential matrix even when no fuzzing budget is configured.
// `make fuzz` / CI's fuzz-smoke job explore new inputs.
func FuzzEngines(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(40), uint8(1), uint8(0), uint8(0))
	f.Add(int64(3), uint8(60), uint8(200), uint8(2), uint8(1), uint8(1))
	f.Add(int64(7), uint8(25), uint8(99), uint8(3), uint8(2), uint8(2))
	f.Add(int64(-12345), uint8(80), uint8(120), uint8(4), uint8(1), uint8(2))
	f.Add(int64(1<<40), uint8(120), uint8(64), uint8(2), uint8(2), uint8(0))

	f.Fuzz(func(t *testing.T, seed int64, sizeB, horizonB, workersB, lanesB, jitLanesB uint8) {
		size := int(sizeB)%120 + 4
		horizon := Time(int(horizonB)%220 + 2)
		workers := int(workersB)%4 + 1
		lanes := fuzzLaneWidths[int(lanesB)%len(fuzzLaneWidths)]
		jitLanes := jitLaneWidths[int(jitLanesB)%len(jitLaneWidths)]

		c := RandomUnitCircuit(seed, size)

		ref := NewRecorder()
		want, err := Simulate(c, Options{
			Engine: Sequential, Horizon: horizon, Workers: 1, Probe: ref,
		})
		if err != nil {
			t.Fatalf("sequential oracle: %v", err)
		}

		for _, alg := range allAlgorithms {
			if alg == Sequential {
				continue
			}
			rec := NewRecorder()
			opts := Options{Engine: alg, Horizon: horizon, Workers: workers, Probe: rec}
			if alg == Vector {
				// Exercise the multi-word plane paths: the extra lanes run
				// seed-shifted stimulus, but lane 0 (the probe lane) must
				// still match the scalar oracle exactly.
				opts.Lanes = lanes
			}
			if alg == JIT {
				// Same contract for the codegen engine, over a ladder that
				// starts at one lane so its scalar table-kind fallback gets
				// differential coverage too.
				opts.Lanes = jitLanes
			}
			res, err := Simulate(c, opts)
			if err != nil {
				conservative := alg == Async || alg == DistAsync
				if conservative && errors.Is(err, ErrStalled) {
					continue // loud refusal on an event-free feedback loop
				}
				t.Fatalf("%v(seed=%d size=%d horizon=%d workers=%d lanes=%d): %v",
					alg, seed, size, horizon, workers, lanes, err)
			}
			if d := HistoryDiff(c, ref, rec); d != "" {
				t.Errorf("%v(seed=%d size=%d horizon=%d workers=%d lanes=%d) history diverges: %s",
					alg, seed, size, horizon, workers, lanes, d)
			}
			for n := range c.Nodes {
				if res.Final[n] != want.Final[n] {
					t.Errorf("%v(seed=%d): node %q final %v, want %v",
						alg, seed, c.Nodes[n].Name, res.Final[n], want.Final[n])
				}
			}
		}
	})
}

// fuzzLaneWidths are the vector plane widths the harness cycles through:
// one machine word, four words, and sixteen words per plane — the same
// ladder the lanes x workers benchmark sweep measures.
var fuzzLaneWidths = []int{64, 256, 1024}

// jitLaneWidths is the codegen engine's ladder. It starts at a single lane
// because the jit compiler lowers scalar table kinds (mul/alu/rom/ram)
// through a different kernel than their bit-sliced wide forms — both paths
// need differential coverage.
var jitLaneWidths = []int{1, 64, 256}

// corpusEntry builds the go-fuzz corpus file encoding for the harness's
// parameter tuple; used by the generator test below to keep the checked-in
// corpus format honest.
func corpusEntry(seed int64, size, horizon, workers, lanes, jitLanes uint8) []byte {
	var b [13]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	b[8], b[9], b[10], b[11], b[12] = size, horizon, workers, lanes, jitLanes
	return b[:]
}

// TestFuzzCorpusSeedsReplay re-runs the f.Add seed tuples through one
// deterministic differential pass outside the fuzz driver, so the matrix
// is exercised even under `go test -run`.
func TestFuzzCorpusSeedsReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix is slow")
	}
	for _, e := range [][]byte{
		corpusEntry(1, 10, 40, 1, 0, 0),
		corpusEntry(3, 60, 200, 2, 1, 1),
		corpusEntry(7, 25, 99, 3, 2, 2),
	} {
		seed := int64(binary.LittleEndian.Uint64(e[:8]))
		c := RandomUnitCircuit(seed, int(e[8])%120+4)
		horizon := Time(int(e[9])%220 + 2)
		workers := int(e[10])%4 + 1
		lanes := fuzzLaneWidths[int(e[11])%len(fuzzLaneWidths)]
		jitLanes := jitLaneWidths[int(e[12])%len(jitLaneWidths)]
		ref := NewRecorder()
		if _, err := Simulate(c, Options{Engine: Sequential, Horizon: horizon, Workers: 1, Probe: ref}); err != nil {
			t.Fatal(err)
		}
		rec := NewRecorder()
		if _, err := Simulate(c, Options{Engine: Vector, Horizon: horizon, Workers: workers, Lanes: lanes, Probe: rec}); err != nil {
			t.Fatal(err)
		}
		if d := HistoryDiff(c, ref, rec); d != "" {
			t.Errorf("seed %d lanes %d: %s", seed, lanes, d)
		}
		jrec := NewRecorder()
		if _, err := Simulate(c, Options{Engine: JIT, Horizon: horizon, Workers: workers, Lanes: jitLanes, Probe: jrec}); err != nil {
			t.Fatal(err)
		}
		if d := HistoryDiff(c, ref, jrec); d != "" {
			t.Errorf("jit seed %d lanes %d: %s", seed, jitLanes, d)
		}
	}
}

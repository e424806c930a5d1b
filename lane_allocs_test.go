package parsim

import (
	"runtime"
	"testing"
)

// raceEnabled is set by race_test.go when the tests run under -race.
var raceEnabled bool

// TestWideLaneResultAllocs bounds what one 256-lane jit job on the
// gate-level multiplier allocates. The plane core hands back its final
// planes packed (LaneValues, two bits per node bit per lane), so the job
// allocates its state and not a decoded report: decoding every lane into
// 32-byte Values would add 2,422 nodes × 256 lanes × 32 B ≈ 19.8 MB.
func TestWideLaneResultAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime changes what allocates: sync.Pool, for one, drops items at random")
	}
	c := BenchGateMultiplier(DefaultMultiplier())
	opts := Options{Engine: JIT, Workers: 1, Lanes: 256, Horizon: 512}
	run := func() {
		res, err := Simulate(c, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.LaneFinal.Lanes() != 256 {
			t.Fatalf("LaneFinal holds %d lanes, want 256", res.LaneFinal.Lanes())
		}
	}
	run() // the level schedule is memoised on the first run
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / runs
	// 1.40 MiB measured on linux/amd64 with go1.24; the budget leaves
	// headroom for the runtime and still catches any per-lane decode.
	const budget = 2.0 * (1 << 20)
	if per > budget {
		t.Errorf("a 256-lane jit run allocates %.2f MiB, budget %.2f MiB", per/(1<<20), budget/(1<<20))
	}
}

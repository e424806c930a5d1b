package parsim

import (
	"runtime"
	"testing"
)

// raceEnabled is set by race_test.go when the tests run under -race.
var raceEnabled bool

// warmRunAllocs is what one run of opts on c allocates once the run
// before it has lowered the circuit into a machine the next run reuses,
// averaged over three runs.
func warmRunAllocs(t *testing.T, c *Circuit, opts Options, check func(*Result)) float64 {
	t.Helper()
	run := func() {
		res, err := Simulate(c, opts)
		if err != nil {
			t.Fatal(err)
		}
		check(res)
	}
	run() // lowers the circuit and memoises its level schedule
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestWideLaneResultAllocs bounds what one warm 256-lane jit job on the
// gate-level multiplier allocates. The plane core hands back its final
// planes packed (LaneValues, two bits per node bit per lane), so the job
// allocates its result and not a decoded report: decoding every lane into
// 32-byte Values would add 2,422 nodes × 256 lanes × 32 B ≈ 19.8 MB. The
// lowered program and its slabs are reused from the run before, so neither
// a lowering (about 1 MB here) nor fresh slabs fit the budget either.
func TestWideLaneResultAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime changes what allocates: sync.Pool, for one, drops items at random")
	}
	c := BenchGateMultiplier(DefaultMultiplier())
	per := warmRunAllocs(t, c, Options{Engine: JIT, Workers: 1, Lanes: 256, Horizon: 512}, func(res *Result) {
		if res.LaneFinal.Lanes() != 256 {
			t.Fatalf("LaneFinal holds %d lanes, want 256", res.LaneFinal.Lanes())
		}
	})
	// 0.28 MiB measured on linux/amd64 with go1.24 (1.40 MiB before
	// lowered programs were reused); the budget leaves headroom for the
	// runtime.
	const budget = 0.5 * (1 << 20)
	if per > budget {
		t.Errorf("a warm 256-lane jit run allocates %.2f MiB, budget %.2f MiB", per/(1<<20), budget/(1<<20))
	}
}

// TestOneLaneWarmAllocs bounds a warm one-lane jit job on the gate-level
// multiplier: the decoded Final and the one-lane LaneValues are nearly
// all it allocates, against a lowering (0.34 MiB) and two fresh buffer
// sides (0.37 MiB) when every run lowered.
func TestOneLaneWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime changes what allocates: sync.Pool, for one, drops items at random")
	}
	c := BenchGateMultiplier(DefaultMultiplier())
	per := warmRunAllocs(t, c, Options{Engine: JIT, Workers: 1, Lanes: 1, Horizon: 512}, func(*Result) {})
	// 0.14 MiB measured on linux/amd64 with go1.24 (0.85 MiB before
	// lowered programs were reused).
	const budget = 0.25 * (1 << 20)
	if per > budget {
		t.Errorf("a warm one-lane jit run allocates %.2f MiB, budget %.2f MiB", per/(1<<20), budget/(1<<20))
	}
}

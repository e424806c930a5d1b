package parsim

import (
	"context"
	"errors"
	"testing"
	"time"

	"parsim/internal/guard"
)

// These tests drive the runtime supervision layer through the public
// facade for every registered engine, mirroring cancel_test.go: chaos
// probes inject worker panics and dropped wakeups, zero-delay rings
// provoke genuine stalls, and the assertions hold under -race (the
// `make chaos` target). The guard package's own unit tests live in
// internal/guard; here we prove the wiring end to end.

// guardHorizon is large enough that every algorithm performs well over
// PanicAtEval evaluations before finishing.
const guardHorizon = Time(5000)

// TestGuardChaosPanicContainedAllEngines injects a panic into the Nth
// evaluation of every engine and requires a structured *WorkerFault
// back — not a crashed process, not a hang.
func TestGuardChaosPanicContainedAllEngines(t *testing.T) {
	for _, alg := range allAlgorithms {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			t.Parallel()
			c := BenchFeedbackChain(13)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_, err := SimulateContext(ctx, c, Options{
				Engine:  alg,
				Workers: cancelWorkers(alg),
				Horizon: guardHorizon,
				Chaos:   &ChaosProbe{PanicAtEval: 40},
			})
			var wf *WorkerFault
			if !errors.As(err, &wf) {
				t.Fatalf("err = %v, want *WorkerFault", err)
			}
			if wf.Engine != alg {
				t.Errorf("fault engine = %q, want %q", wf.Engine, alg)
			}
			if len(wf.Stack) == 0 {
				t.Error("fault carries no goroutine stack")
			}
			if _, ok := wf.Panic.(*guard.ChaosPanic); !ok {
				t.Errorf("fault panic value = %#v, want *guard.ChaosPanic", wf.Panic)
			}
			if alg == Sequential && wf.Worker != -1 {
				t.Errorf("sequential fault worker = %d, want -1 (main goroutine)", wf.Worker)
			}
		})
	}
}

// TestGuardStalledRingAsyncFamily: the canonical zero-delay ring makes
// the asynchronous-family engines go idle with node valid-times short of
// the horizon. The silent stall-at-X of earlier versions must now be a
// typed ErrStalled naming the stuck nodes — dist self-reports after
// Safra termination, core after its completion check.
func TestGuardStalledRingAsyncFamily(t *testing.T) {
	for _, alg := range []Algorithm{Async, ChandyMisra, DistAsync} {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			t.Parallel()
			c := buildZeroDelayRing(t)
			_, err := SimulateContext(context.Background(), c, Options{
				Engine:  alg,
				Workers: 2,
				Horizon: 8,
			})
			if !errors.Is(err, ErrStalled) {
				t.Fatalf("err = %v, want ErrStalled", err)
			}
			var st *StallError
			if !errors.As(err, &st) {
				t.Fatalf("err = %v, want *StallError", err)
			}
			if len(st.StuckNodes) == 0 {
				t.Error("stall report names no stuck nodes")
			}
			if st.Engine != alg {
				t.Errorf("stall engine = %q, want %q", st.Engine, alg)
			}
		})
	}
}

// TestGuardWatchdogAbortsTimeWarpLivelock: the optimistic engine chews
// on the ring's same-timestamp oscillation forever (its GVT pins at 0),
// which only the progress watchdog can catch. The abort must carry the
// per-worker diagnostic dump.
func TestGuardWatchdogAbortsTimeWarpLivelock(t *testing.T) {
	c := buildZeroDelayRing(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	_, err := SimulateContext(ctx, c, Options{
		Engine:   TimeWarp,
		Workers:  2,
		Horizon:  8,
		Watchdog: 300 * time.Millisecond,
	})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	var st *StallError
	if !errors.As(err, &st) {
		t.Fatalf("err = %v, want *StallError", err)
	}
	if st.Dump == "" {
		t.Error("watchdog abort carries no per-worker counter dump")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("watchdog took %v to abort a 300ms stall", elapsed)
	}
}

// TestGuardEventDrivenRingPanicContained: the event-driven engine's
// natural failure on the ring is a genuine panic ("schedule in the
// past"), not an injected one. It must surface as a WorkerFault too.
func TestGuardEventDrivenRingPanicContained(t *testing.T) {
	c := buildZeroDelayRing(t)
	_, err := SimulateContext(context.Background(), c, Options{
		Engine:  EventDriven,
		Workers: 2,
		Horizon: 8,
	})
	var wf *WorkerFault
	if !errors.As(err, &wf) {
		t.Fatalf("err = %v, want *WorkerFault", err)
	}
}

// TestGuardDroppedWakeupWatchdog: swallowing an activation in the
// asynchronous engine leaks its pending-work count, so the run spins
// without evaluating anything. No heartbeat advances, and the watchdog
// must catch the hang.
func TestGuardDroppedWakeupWatchdog(t *testing.T) {
	c := BenchFeedbackChain(13)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err := SimulateContext(ctx, c, Options{
		Engine:   Async,
		Workers:  2,
		Horizon:  guardHorizon,
		Watchdog: 300 * time.Millisecond,
		Chaos:    &ChaosProbe{DropWakeups: 2},
	})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
}

// TestGuardDroppedWakeupSelfReport: the distributed engine drops the
// wakeup before queueing, so the ring of workers passively terminates
// (Safra declares quiescence) and the completion check must self-report
// the stall — no watchdog needed.
func TestGuardDroppedWakeupSelfReport(t *testing.T) {
	c := BenchFeedbackChain(13)
	_, err := SimulateContext(context.Background(), c, Options{
		Engine:  DistAsync,
		Workers: 2,
		Horizon: guardHorizon,
		Chaos:   &ChaosProbe{DropWakeups: 2},
	})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	var st *StallError
	if !errors.As(err, &st) || len(st.StuckNodes) == 0 {
		t.Fatalf("dist self-report names no stuck nodes: %v", err)
	}
}

// TestGuardFallbackDegraded: with Options.Fallback, a chaos-panicked run
// on every parallel engine is transparently retried on the sequential
// reference. The retried result must be correct (identical finals to a
// clean sequential run), flagged Degraded, and carry the original fault.
func TestGuardFallbackDegraded(t *testing.T) {
	ref, err := Simulate(BenchInverterArray(DefaultInverterArray()), Options{
		Engine:  Sequential,
		Workers: 1,
		Horizon: 200,
	})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	for _, alg := range allAlgorithms {
		if alg == Sequential {
			continue
		}
		alg := alg
		t.Run(alg, func(t *testing.T) {
			t.Parallel()
			c := BenchInverterArray(DefaultInverterArray())
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			res, err := SimulateContext(ctx, c, Options{
				Engine:   alg,
				Workers:  2,
				Horizon:  200,
				Fallback: true,
				Chaos:    &ChaosProbe{PanicAtEval: 40},
			})
			if err != nil {
				t.Fatalf("fallback did not absorb the fault: %v", err)
			}
			if !res.Degraded {
				t.Fatal("result not flagged Degraded")
			}
			var wf *WorkerFault
			if !errors.As(res.Fault, &wf) {
				t.Fatalf("Fault = %v, want the original *WorkerFault", res.Fault)
			}
			if !IsRecoverable(res.Fault) {
				t.Error("original fault not classified recoverable")
			}
			for n := range ref.Final {
				if !res.Final[n].Equal(ref.Final[n]) {
					t.Fatalf("degraded result wrong at node %d: %v != %v",
						n, res.Final[n], ref.Final[n])
				}
			}
		})
	}
}

// TestGuardFallbackSkippedForSequential: falling back from sequential to
// sequential would re-run the same fault; the policy must skip it and
// return the original error.
func TestGuardFallbackSkippedForSequential(t *testing.T) {
	c := BenchFeedbackChain(13)
	_, err := SimulateContext(context.Background(), c, Options{
		Engine:   Sequential,
		Workers:  1,
		Horizon:  guardHorizon,
		Fallback: true,
		Chaos:    &ChaosProbe{PanicAtEval: 40},
	})
	var wf *WorkerFault
	if !errors.As(err, &wf) {
		t.Fatalf("err = %v, want the unretried *WorkerFault", err)
	}
}

// TestGuardChaosScopedProbeSparesOtherEngines: a probe scoped to one
// engine must not fire in another — the property that keeps a fallback
// run clean of the chaos that killed the primary.
func TestGuardChaosScopedProbeSparesOtherEngines(t *testing.T) {
	c := BenchFeedbackChain(13)
	res, err := SimulateContext(context.Background(), c, Options{
		Engine:  Async,
		Workers: 2,
		Horizon: 500,
		Chaos:   &ChaosProbe{Engine: "time-warp", PanicAtEval: 1},
	})
	if err != nil {
		t.Fatalf("scoped probe fired in the wrong engine: %v", err)
	}
	if res == nil || res.Stats.Evals == 0 {
		t.Fatal("run did not execute")
	}
}

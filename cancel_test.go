package parsim

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"parsim/internal/engine"
)

// allAlgorithms is every registered engine, exercised through the facade.
var allAlgorithms = []Algorithm{
	Sequential, EventDriven, Compiled, Async, DistAsync, TimeWarp, ChandyMisra, Vector, JIT,
}

// cancelHorizon is far beyond what any algorithm can finish in the test
// deadline: the feedback chain keeps one event circulating forever, so an
// uncancelled run would take minutes to hours.
const cancelHorizon = Time(1) << 40

func cancelWorkers(a Algorithm) int {
	if a == Sequential {
		return 1
	}
	return 2
}

// TestSimulateContextTimeout runs every algorithm on a long feedback ring
// with a deadline a few milliseconds out and requires a prompt return with
// DeadlineExceeded plus usable partial statistics. Run under -race this
// also checks that the cancellation paths are data-race free.
func TestSimulateContextTimeout(t *testing.T) {
	c := BenchFeedbackChain(31)
	for _, alg := range allAlgorithms {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			start := time.Now()
			res, err := SimulateContext(ctx, c, Options{
				Engine:  alg,
				Workers: cancelWorkers(alg),
				Horizon: cancelHorizon,
			})
			elapsed := time.Since(start)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want DeadlineExceeded", err)
			}
			// "Within one scheduling quantum" — generous bound so loaded CI
			// machines pass, but far below any full run of this horizon.
			if elapsed > 5*time.Second {
				t.Fatalf("took %v to honour cancellation", elapsed)
			}
			if res == nil {
				t.Fatal("no partial result returned")
			}
			if res.Stats.Workers != cancelWorkers(alg) {
				t.Errorf("partial stats workers = %d, want %d", res.Stats.Workers, cancelWorkers(alg))
			}
			if len(res.Stats.PerWorker) != cancelWorkers(alg) {
				t.Errorf("PerWorker rows = %d, want %d", len(res.Stats.PerWorker), cancelWorkers(alg))
			}
			if res.Final == nil {
				t.Error("partial result has no Final values")
			}
			if res.Stats.Wall <= 0 {
				t.Error("partial stats carry no wall time")
			}
		})
	}
}

// TestSimulateContextExplicitCancel cancels mid-run from another goroutine
// and requires Canceled (not DeadlineExceeded) to come back.
func TestSimulateContextExplicitCancel(t *testing.T) {
	c := BenchFeedbackChain(31)
	for _, alg := range allAlgorithms {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(20 * time.Millisecond)
				cancel()
			}()
			res, err := SimulateContext(ctx, c, Options{
				Engine:  alg,
				Workers: cancelWorkers(alg),
				Horizon: cancelHorizon,
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want Canceled", err)
			}
			if res == nil {
				t.Fatal("no partial result returned")
			}
		})
	}
}

// TestSimulateContextComplete checks that a context that is never cancelled
// does not perturb a short run: same histories as the context-free path.
func TestSimulateContextComplete(t *testing.T) {
	c := BenchFeedbackChain(15)
	for _, alg := range allAlgorithms {
		res, err := SimulateContext(context.Background(), c, Options{
			Engine:  alg,
			Workers: cancelWorkers(alg),
			Horizon: 500,
		})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		ref, err := Simulate(c, Options{Engine: alg, Workers: cancelWorkers(alg), Horizon: 500})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		for n := range ref.Final {
			if !res.Final[n].Equal(ref.Final[n]) {
				t.Fatalf("%s: node %d final %v != %v", alg, n, res.Final[n], ref.Final[n])
			}
		}
	}
}

// TestSimulateContextAlreadyCancelled hands every algorithm a context that
// is dead on arrival; the run must return almost immediately.
func TestSimulateContextAlreadyCancelled(t *testing.T) {
	c := BenchFeedbackChain(31)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, alg := range allAlgorithms {
		start := time.Now()
		res, err := SimulateContext(ctx, c, Options{
			Engine:  alg,
			Workers: cancelWorkers(alg),
			Horizon: cancelHorizon,
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want Canceled", alg, err)
		}
		if res == nil {
			t.Fatalf("%s: no partial result", alg)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("%s: took %v on a pre-cancelled context", alg, elapsed)
		}
	}
}

// TestNoEngineLeavesGoroutines runs every registry entry to each way a run
// can end — completed, cancelled through its context, and a contained
// worker panic — and requires the goroutine count back at its baseline
// once engine.Run has returned: the engine layer's gang, supervisor and
// cancellation flag leave nothing running behind a finished run.
func TestNoEngineLeavesGoroutines(t *testing.T) {
	c := BenchFeedbackChain(13)
	outcomes := []struct {
		name    string
		horizon Time
		cancel  time.Duration // > 0: cancel the run context after this long
		panics  bool          // a chaos probe panics the 40th evaluation
		check   func(error) bool
	}{
		{"completed", 200, 0, false, func(err error) bool { return err == nil }},
		{"cancelled", cancelHorizon, 20 * time.Millisecond, false,
			func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"panicked", guardHorizon, 0, true,
			func(err error) bool { var wf *WorkerFault; return errors.As(err, &wf) }},
	}
	for _, name := range engine.Names() {
		workers := 2
		if name == Sequential {
			workers = 1
		}
		for _, o := range outcomes {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			if o.cancel > 0 {
				time.AfterFunc(o.cancel, cancel)
			}
			cfg := engine.Config{Workers: workers, Horizon: o.horizon}
			if o.panics {
				cfg.Chaos = &ChaosProbe{PanicAtEval: 40}
			}
			cfg.Engine = name
			_, err := engine.Run(ctx, c, cfg)
			cancel()
			if !o.check(err) {
				t.Errorf("%s %s: unexpected error %v", name, o.name, err)
			}
			n := runtime.NumGoroutine()
			for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
				time.Sleep(time.Millisecond)
			}
			if n > base {
				t.Errorf("%s %s: %d goroutines after the run, %d before", name, o.name, n, base)
			}
		}
	}
}

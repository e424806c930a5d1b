package guard

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestWatchdogFiresOnSilence(t *testing.T) {
	t.Parallel()
	g := New("compiled", Options{Workers: 2, Window: 30 * time.Millisecond})
	ctx := g.Attach(context.Background())
	defer g.Stop()

	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never tripped on a silent run")
	}
	st := g.Stalled()
	if st == nil {
		t.Fatal("tripped without a stall report")
	}
	if !errors.Is(st, ErrStalled) {
		t.Fatalf("stall report does not match ErrStalled: %v", st)
	}
	if st.Engine != "compiled" || st.Window != 30*time.Millisecond {
		t.Fatalf("stall report = %+v", st)
	}
	if err := g.Err(); !errors.Is(err, ErrStalled) {
		t.Fatalf("Err() = %v, want ErrStalled", err)
	}
}

func TestWatchdogHeldOffByHeartbeats(t *testing.T) {
	t.Parallel()
	g := New("asynchronous", Options{Workers: 2, Window: 60 * time.Millisecond})
	ctx := g.Attach(context.Background())
	defer g.Stop()

	// Beat well inside the window for several windows' worth of time.
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		g.Heartbeat(1)
		select {
		case <-ctx.Done():
			t.Fatalf("watchdog tripped despite heartbeats: %v", g.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
	if g.Err() != nil {
		t.Fatalf("supervisor tripped: %v", g.Err())
	}
}

func TestWatchdogIgnoresPinnedProgress(t *testing.T) {
	t.Parallel()
	g := New("time-warp", Options{Workers: 1, Window: 40 * time.Millisecond})
	ctx := g.Attach(context.Background())
	defer g.Stop()

	// Republishing the same GVT is a livelock, not progress.
	go func() {
		for ctx.Err() == nil {
			g.Progress(7)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("pinned progress value held the watchdog off")
	}
	if st := g.Stalled(); st == nil || st.LastProgress != 7 {
		t.Fatalf("stall report = %+v, want LastProgress 7", st)
	}
}

func TestRecoverCapturesFaultAndCancels(t *testing.T) {
	t.Parallel()
	g := New("event-driven", Options{Workers: 4})
	ctx := g.Attach(context.Background())
	defer g.Stop()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer g.Recover(3, "phase B")
		panic("boom")
	}()
	wg.Wait()

	select {
	case <-ctx.Done():
	default:
		t.Fatal("fault did not cancel the derived context")
	}
	f := g.Fault()
	if f == nil {
		t.Fatal("no fault recorded")
	}
	if f.Engine != "event-driven" || f.Worker != 3 || f.Where != "phase B" || f.Panic != "boom" {
		t.Fatalf("fault = %+v", f)
	}
	if len(f.Stack) == 0 {
		t.Fatal("fault has no stack")
	}
	var wf *WorkerFault
	if err := g.Err(); !errors.As(err, &wf) {
		t.Fatalf("Err() = %v, want *WorkerFault", err)
	}
	if !Recoverable(g.Err()) {
		t.Fatal("worker fault should be recoverable")
	}
}

func TestFirstFaultWins(t *testing.T) {
	t.Parallel()
	g := New("x", Options{Workers: 2})
	g.Attach(context.Background())
	defer g.Stop()

	func() {
		defer g.Recover(0, "first")
		panic("first")
	}()
	func() {
		defer g.Recover(1, "second")
		panic("second")
	}()
	if f := g.Fault(); f == nil || f.Panic != "first" {
		t.Fatalf("fault = %+v, want the first panic", f)
	}
}

func TestNilSupervisorIsInert(t *testing.T) {
	t.Parallel()
	var g *Supervisor
	ctx := context.Background()
	if got := g.Attach(ctx); got != ctx {
		t.Fatal("nil Attach must return the context unchanged")
	}
	g.Heartbeat(0)
	g.Progress(10)
	g.OnTrip(func() { t.Fatal("nil OnTrip fired") })
	g.Stop()
	if g.Chaos() != nil || g.Fault() != nil || g.Stalled() != nil || g.Err() != nil {
		t.Fatal("nil accessors must return nil")
	}
	// Recover on a nil supervisor must re-panic, preserving the
	// historical crash behaviour for unsupervised runs.
	defer func() {
		if r := recover(); r != "through" {
			t.Fatalf("recovered %v, want the original panic", r)
		}
	}()
	func() {
		defer g.Recover(0, "nowhere")
		panic("through")
	}()
	t.Fatal("panic did not propagate through nil Recover")
}

func TestOnTripRunsHooks(t *testing.T) {
	t.Parallel()
	g := New("compiled", Options{Workers: 1})
	g.Attach(context.Background())
	defer g.Stop()

	ran := make(chan string, 2)
	g.OnTrip(func() { ran <- "before" })
	func() {
		defer g.Recover(0, "loop")
		panic("die")
	}()
	// Registered after the trip: must fire immediately.
	g.OnTrip(func() { ran <- "after" })
	for _, want := range []string{"before", "after"} {
		select {
		case got := <-ran:
			if got != want {
				t.Fatalf("hook order: got %q, want %q", got, want)
			}
		default:
			t.Fatalf("hook %q never ran", want)
		}
	}
}

func TestChaosProbePanicsAtNthEval(t *testing.T) {
	t.Parallel()
	p := &ChaosProbe{PanicAtEval: 3}
	p.Eval()
	p.Eval()
	defer func() {
		cp, ok := recover().(*ChaosPanic)
		if !ok || cp.Eval != 3 {
			t.Fatalf("recovered %v, want ChaosPanic at eval 3", cp)
		}
	}()
	p.Eval()
	t.Fatal("third Eval did not panic")
}

func TestChaosProbeDropsWakeups(t *testing.T) {
	t.Parallel()
	p := &ChaosProbe{DropWakeups: 2}
	if !p.DropWakeup() || !p.DropWakeup() {
		t.Fatal("first two wakeups must be dropped")
	}
	if p.DropWakeup() {
		t.Fatal("probe kept dropping past its budget")
	}
	if p.Dropped() != 2 {
		t.Fatalf("Dropped() = %d, want 2", p.Dropped())
	}
}

func TestChaosScoping(t *testing.T) {
	t.Parallel()
	p := &ChaosProbe{Engine: "time-warp", PanicAtEval: 1}
	if g := New("sequential", Options{Chaos: p}); g.Chaos() != nil {
		t.Fatal("probe scoped to time-warp leaked into a sequential run")
	}
	if g := New("time-warp", Options{Chaos: p}); g.Chaos() != p {
		t.Fatal("probe did not arm for its own engine")
	}
	if g := New("compiled", Options{Chaos: &ChaosProbe{}}); g.Chaos() == nil {
		t.Fatal("unscoped probe must arm everywhere")
	}
}

func TestRecoverableClassification(t *testing.T) {
	t.Parallel()
	if !Recoverable(&StallError{Engine: "asynchronous"}) {
		t.Fatal("StallError must be recoverable")
	}
	if !Recoverable(&WorkerFault{Engine: "compiled"}) {
		t.Fatal("WorkerFault must be recoverable")
	}
	if Recoverable(context.Canceled) || Recoverable(errors.New("bad config")) || Recoverable(nil) {
		t.Fatal("cancellation / validation errors must not be recoverable")
	}
}

// TestCutShortFollowsThePoll: a cancelled context alone does not cut a run
// short; the first Cancelled poll that sees it does, and the mark stays.
func TestCutShortFollowsThePoll(t *testing.T) {
	t.Parallel()
	g := New("sequential", Options{Workers: 1})
	parent, cancel := context.WithCancel(context.Background())
	ctx := g.Attach(parent)
	defer g.Stop()
	if g.Cancelled() || g.CutShort() {
		t.Fatal("a live run reads cancelled or cut short")
	}
	cancel()
	<-ctx.Done()
	if g.CutShort() {
		t.Fatal("cut short before any poll saw the cancellation")
	}
	deadline := time.Now().Add(5 * time.Second)
	for !g.Cancelled() {
		if time.Now().After(deadline) {
			t.Fatal("Cancelled never saw the cancelled context")
		}
		time.Sleep(time.Millisecond)
	}
	if !g.CutShort() {
		t.Fatal("a poll saw the cancellation, but the run is not cut short")
	}
	var nilSup *Supervisor
	if nilSup.CutShort() {
		t.Fatal("a nil supervisor is cut short")
	}
}

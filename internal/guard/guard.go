// Package guard is the runtime supervision layer shared by every
// simulation engine. The static analyzer (internal/analyze) refuses
// hazardous circuits before a run starts; this package detects, contains
// and reports the same failure classes while the simulation is running:
//
//   - panic containment: every worker goroutine runs under a recover
//     wrapper that converts a panic into a structured WorkerFault and
//     trips the supervisor, which cooperatively cancels the remaining
//     workers instead of crashing the process;
//   - progress watchdog: engines publish a monotone progress metric
//     (current step, GVT, valid-time heartbeats); a watchdog goroutine
//     declares a stall when the metric stops advancing for a configured
//     window — the conservative-protocol stall analysed by Kolakowska &
//     Novotny — and aborts the run with a typed StallError;
//   - chaos fault injection: a ChaosProbe induces panics, delays and
//     dropped wakeups inside engine hot loops so tests can prove the
//     supervisor actually recovers under the race detector.
//
// The engine layer (internal/engine) installs one Supervisor per run and
// threads it to the engines through engine.Config; engines only ever call
// the nil-safe hooks (Cancelled, Heartbeat, Progress, Chaos), and the
// engine layer's worker gang is the one caller of Recover, so a run without
// a Supervisor pays nothing and keeps the historical crash-on-panic
// behaviour.
package guard

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrStalled is the sentinel matched by errors.Is for every stall report,
// whether raised by the watchdog mid-run or self-reported by an engine
// that went idle with nodes still short of the horizon.
var ErrStalled = errors.New("parsim: simulation stalled")

// WorkerFault is a contained worker panic: the supervisor converts the
// panic into this structured error and cancels the surviving workers, so
// the process keeps running and the caller gets the full context.
type WorkerFault struct {
	Engine string // engine registry name
	Worker int    // worker id; -1 for the engine's main goroutine
	Where  string // engine-provided context (phase / loop)
	Panic  any    // the recovered panic value
	Stack  []byte // stack of the panicking goroutine
}

// Error formats the fault without the stack; use Stack for the full dump.
func (f *WorkerFault) Error() string {
	who := fmt.Sprintf("worker %d", f.Worker)
	if f.Worker < 0 {
		who = "main goroutine"
	}
	return fmt.Sprintf("parsim: worker fault: engine %s %s (%s) panicked: %v",
		f.Engine, who, f.Where, f.Panic)
}

// StallError reports that a run stopped making progress. Window > 0 means
// the watchdog caught the stall mid-run; Window == 0 means the engine
// itself detected the conservative silent-stall on completion (workers
// all went idle with node valid-times short of the horizon) and named
// the stuck nodes.
type StallError struct {
	Engine       string
	Window       time.Duration // watchdog window; 0 = detected at completion
	LastProgress int64         // last published progress value (step / GVT / min valid-time)
	StuckNodes   []string      // nodes whose behaviour never reached the horizon
	Truncated    int           // stuck nodes beyond the ones named
	Dump         string        // per-worker counter dump, attached post-run
}

// Error summarises the stall; the Dump carries the per-worker detail.
func (e *StallError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v: engine %s", ErrStalled, e.Engine)
	if e.Window > 0 {
		fmt.Fprintf(&b, ": no progress for %v (last progress %d)", e.Window, e.LastProgress)
	} else {
		fmt.Fprintf(&b, ": workers went idle with behaviour known only to t=%d", e.LastProgress)
	}
	if len(e.StuckNodes) > 0 {
		fmt.Fprintf(&b, "; stuck nodes: %s", strings.Join(e.StuckNodes, ", "))
		if e.Truncated > 0 {
			fmt.Fprintf(&b, " (and %d more)", e.Truncated)
		}
	}
	if e.Dump != "" {
		fmt.Fprintf(&b, "\n%s", e.Dump)
	}
	return b.String()
}

// Is matches the ErrStalled sentinel so callers can errors.Is without
// caring how the stall was detected.
func (e *StallError) Is(target error) bool { return target == ErrStalled }

// Recoverable reports whether err is a supervision outcome — a contained
// WorkerFault or a StallError — i.e. the class of failures the fallback
// policy may transparently retry on the reference engine. Cancellation
// and validation errors are not recoverable: the first is the caller's
// decision, the second would fail identically on any engine.
func Recoverable(err error) bool {
	var wf *WorkerFault
	return errors.Is(err, ErrStalled) || errors.As(err, &wf)
}

// Options configures a Supervisor.
type Options struct {
	Workers int           // heartbeat lanes, one per worker (min 1)
	Window  time.Duration // watchdog stall window; 0 disables the watchdog
	Chaos   *ChaosProbe   // optional fault injection (tests)
}

// lane is a per-worker heartbeat counter, padded so workers beating
// concurrently do not share a cache line.
type lane struct {
	n atomic.Int64
	_ [56]byte
}

// Supervisor watches one engine run. All publication methods are safe on
// a nil receiver (no-ops), so engines call them unconditionally.
type Supervisor struct {
	engine string
	window time.Duration
	chaos  *ChaosProbe

	gauge atomic.Int64 // last published monotone progress value
	gen   atomic.Int64 // progress generation (bumped by Progress advances)
	lanes []lane       // per-worker heartbeats (bumped by Heartbeat)

	fault   atomic.Pointer[WorkerFault]
	stall   atomic.Pointer[StallError]
	tripped atomic.Bool
	tripMu  sync.Mutex
	trips   []func()

	// cancelled is set once the run context is done, by the caller or by a
	// trip. Workers poll it in their hot loops, so it sits on a cache line
	// of its own, away from the words the publishers write. cutShort is
	// set, once, the first time a poll sees it (CutShort).
	_         [64]byte
	cancelled atomic.Bool
	cutShort  atomic.Bool
	_         [62]byte

	cancel   context.CancelFunc
	unwatch  func() bool // deregisters the cancellation callback
	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a Supervisor for one run of the named engine. A chaos probe
// scoped to a different engine is discarded here, so fallback runs and
// unrelated engines never see injected faults.
func New(engineName string, opts Options) *Supervisor {
	w := opts.Workers
	if w < 1 {
		w = 1
	}
	chaos := opts.Chaos
	if chaos != nil && !chaos.Matches(engineName) {
		chaos = nil
	}
	return &Supervisor{
		engine: engineName,
		window: opts.Window,
		chaos:  chaos,
		lanes:  make([]lane, w),
		stopCh: make(chan struct{}),
	}
}

// Attach derives the run context the engine must execute under: tripping
// the supervisor (fault or stall) cancels it, and its cancellation, from
// either side, sets the flag Cancelled reads — a callback on the context,
// not a watcher goroutine. When a watchdog window is configured the
// watchdog goroutine starts here. Callers must Stop the supervisor once
// the run returns.
func (g *Supervisor) Attach(ctx context.Context) context.Context {
	if g == nil {
		return ctx
	}
	cctx, cancel := context.WithCancel(ctx)
	g.cancel = cancel
	g.unwatch = context.AfterFunc(cctx, func() { g.cancelled.Store(true) })
	if g.window > 0 {
		g.wg.Add(1)
		go g.watchdog()
	}
	return cctx
}

// Stop shuts the watchdog down and releases the derived context. It is
// idempotent and must run after the engine has returned.
func (g *Supervisor) Stop() {
	if g == nil {
		return
	}
	g.stopOnce.Do(func() { close(g.stopCh) })
	g.wg.Wait()
	if g.unwatch != nil {
		g.unwatch() // the run is over; releasing the context must not start the callback
	}
	if g.cancel != nil {
		g.cancel()
	}
}

// Cancelled reports whether the run context has been cancelled — by the
// caller, a deadline or a trip. It is one atomic load, for polling inside
// simulator hot loops where ctx.Err() (a mutex) would contend; a nil
// Supervisor is never cancelled. Engines poll it to decide to stop, so its
// first true answer marks the run as cut short (CutShort).
func (g *Supervisor) Cancelled() bool {
	if g == nil || !g.cancelled.Load() {
		return false
	}
	if !g.cutShort.Load() {
		g.cutShort.Store(true)
	}
	return true
}

// CutShort reports whether a Cancelled poll has returned true: the engine
// saw its cancellation and stopped short of its horizon. The flag trails
// the context — it is set by a callback — so a run that reached its
// horizon after its context was cancelled is not cut short.
func (g *Supervisor) CutShort() bool {
	return g != nil && g.cutShort.Load()
}

// Chaos returns the probe scoped to this run's engine, or nil. Engines
// capture it once and branch per evaluation, keeping the disarmed hot
// path to a single predictable comparison.
func (g *Supervisor) Chaos() *ChaosProbe {
	if g == nil {
		return nil
	}
	return g.chaos
}

// Heartbeat marks forward progress by worker w that has no natural
// monotone metric (the asynchronous family's valid-time advances). Each
// worker beats its own padded lane, so the hot path never contends.
func (g *Supervisor) Heartbeat(w int) {
	if g == nil {
		return
	}
	if w < 0 || w >= len(g.lanes) {
		w = 0
	}
	g.lanes[w].n.Add(1)
}

// Progress publishes a monotone progress value (current step, GVT). Only
// an actual advance counts as progress: a livelocked engine republishing
// a pinned value does not reset the watchdog.
func (g *Supervisor) Progress(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.gauge.Load()
		if v <= cur {
			return
		}
		if g.gauge.CompareAndSwap(cur, v) {
			g.gen.Add(1)
			return
		}
	}
}

// LastProgress returns the last value published through Progress.
func (g *Supervisor) LastProgress() int64 {
	if g == nil {
		return 0
	}
	return g.gauge.Load()
}

// OnTrip registers fn to run (once) when the supervisor trips — on a
// worker fault or a watchdog stall. Barrier-based engines register their
// barrier's Abort here so no surviving worker is left spinning for a
// peer that died. fn runs immediately if the supervisor already tripped.
func (g *Supervisor) OnTrip(fn func()) {
	if g == nil {
		return
	}
	g.tripMu.Lock()
	g.trips = append(g.trips, fn)
	fire := g.tripped.Load()
	g.tripMu.Unlock()
	if fire {
		fn()
	}
}

// trip cancels the run and fires the registered trip hooks, exactly once.
func (g *Supervisor) trip() {
	if !g.tripped.CompareAndSwap(false, true) {
		return
	}
	if g.cancel != nil {
		g.cancel()
	}
	g.tripMu.Lock()
	fns := append([]func(){}, g.trips...)
	g.tripMu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// Recover is the worker-goroutine containment wrapper, deferred by the
// engine layer's worker gang (engine.Gang) around every worker:
//
//	defer wg.Done()
//	defer cfg.Guard().Recover(w, "compiled step loop")
//
// On panic it records a WorkerFault (first fault wins) and trips the
// supervisor so the remaining workers stop cooperatively. With no
// supervisor installed the panic propagates unchanged, preserving the
// historical crash behaviour for direct engine-package callers.
func (g *Supervisor) Recover(worker int, where string) {
	r := recover()
	if r == nil {
		return
	}
	if g == nil {
		panic(r)
	}
	g.Capture(worker, where, r)
}

// Capture records an already-recovered panic value as a WorkerFault and
// trips the supervisor. The engine layer uses it to contain panics from
// an engine's main goroutine, where the recover() call sits in its own
// deferred closure.
func (g *Supervisor) Capture(worker int, where string, v any) {
	if g == nil {
		return
	}
	f := &WorkerFault{
		Engine: g.engine,
		Worker: worker,
		Where:  where,
		Panic:  v,
		Stack:  debug.Stack(),
	}
	g.fault.CompareAndSwap(nil, f)
	g.trip()
}

// Fault returns the recorded worker fault, if any.
func (g *Supervisor) Fault() *WorkerFault {
	if g == nil {
		return nil
	}
	return g.fault.Load()
}

// Stalled returns the watchdog's stall report, if any.
func (g *Supervisor) Stalled() *StallError {
	if g == nil {
		return nil
	}
	return g.stall.Load()
}

// Err folds the supervision outcome into one error: a fault outranks a
// stall (the stall is usually a consequence of the dead worker), nil
// means the supervisor never tripped.
func (g *Supervisor) Err() error {
	if g == nil {
		return nil
	}
	if f := g.fault.Load(); f != nil {
		return f
	}
	if s := g.stall.Load(); s != nil {
		return s
	}
	return nil
}

// beat samples the combined progress signal: Progress advances plus every
// worker's heartbeat lane.
func (g *Supervisor) beat() int64 {
	total := g.gen.Load()
	for i := range g.lanes {
		total += g.lanes[i].n.Load()
	}
	return total
}

// watchdog declares a stall when the combined progress signal stays flat
// for the whole window, then trips the supervisor. It never touches the
// engines' plain counter state — the diagnostic dump is attached by the
// engine layer after the workers have exited, where reading it is safe.
func (g *Supervisor) watchdog() {
	defer g.wg.Done()
	tick := g.window / 8
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	if tick > 250*time.Millisecond {
		tick = 250 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	last := g.beat()
	flatSince := time.Now()
	for {
		select {
		case <-g.stopCh:
			return
		case now := <-t.C:
			cur := g.beat()
			if cur != last {
				last = cur
				flatSince = now
				continue
			}
			if now.Sub(flatSince) < g.window {
				continue
			}
			g.stall.CompareAndSwap(nil, &StallError{
				Engine:       g.engine,
				Window:       g.window,
				LastProgress: g.gauge.Load(),
			})
			g.trip()
			return
		}
	}
}

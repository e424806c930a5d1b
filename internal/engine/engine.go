// Package engine is the unified simulation-engine layer: one interface,
// one configuration struct, one report and one registry shared by every
// simulator. Each engine package registers itself from init under a
// canonical name plus aliases; Names lists what is registered.
//
// The paper's point is that the same circuits run under interchangeable
// algorithms whose only differences are scheduling and synchronisation.
// This package makes that interchangeability concrete: the facade, the
// CLIs, the figure harness and the benchmarks all resolve an algorithm by
// name through the registry instead of hand-rolling per-algorithm
// dispatch. Every engine reads the same Config — no engine declares run
// options of its own — and returns a Report with the same per-worker
// counter surface (stats.WorkerCounters).
//
// The layer also owns the run lifecycle every engine shares, so an engine
// package keeps only its algorithm — its state, its step or activation
// body and its own checkpoint sections: RunEngine validates, supervises
// (guard.Supervisor, whose Cancelled flag the workers poll) and folds a
// cancelled run's ctx.Err() into the result; Gang starts the workers under
// panic containment; Lockstep is the stop, capture and restore protocol of
// the unit-delay step loops; StallReport is the asynchronous engines'
// completion check.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"parsim/internal/analyze"
	"parsim/internal/checkpoint"
	"parsim/internal/circuit"
	"parsim/internal/guard"
	"parsim/internal/logic"
	"parsim/internal/partition"
	"parsim/internal/stats"
	"parsim/internal/trace"
)

// LintMode selects how much pre-flight static analysis RunEngine applies
// before handing the circuit to an engine. The analysis is the
// whole-graph checker in internal/analyze; it runs once in the shared
// validation path, so every registered engine gets the same guarantees.
type LintMode int

const (
	// LintOff (the default) skips pre-flight analysis entirely.
	LintOff LintMode = iota
	// LintWarn refuses circuits with Error diagnostics — the hazards that
	// livelock or corrupt a run, such as zero-delay combinational cycles
	// and undriven inputs.
	LintWarn
	// LintStrict additionally refuses Warning diagnostics: unresolved
	// tri-states, multi-driver resolutions, stimulus-free regions and
	// zero-delay elements.
	LintStrict
)

// String returns the flag-style mode name.
func (m LintMode) String() string {
	switch m {
	case LintWarn:
		return "warn"
	case LintStrict:
		return "strict"
	}
	return "off"
}

// ParseLintMode parses a -lint flag value.
func ParseLintMode(s string) (LintMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "off", "":
		return LintOff, nil
	case "warn":
		return LintWarn, nil
	case "strict":
		return LintStrict, nil
	}
	return LintOff, fmt.Errorf("parsim: unknown lint mode %q (have off, warn, strict)", s)
}

// Config is the shared configuration accepted by every engine. Fields that
// do not apply to an algorithm are ignored by it (e.g. Strategy outside
// the statically partitioned engines, NoSteal outside event-driven).
type Config struct {
	Workers int          // parallel workers; 0 defaults to 1
	Horizon circuit.Time // simulate t in [0, Horizon); must be >= 0
	Probe   trace.Probe  // optional observer; must be concurrency-safe for parallel engines
	// CostSpin > 0 burns CostSpin x the element's Cost of synthetic work
	// per evaluation, restoring the paper's gate-vs-functional evaluation
	// cost spread for benchmarking.
	CostSpin int64
	// Strategy selects the static partitioner (compiled, dist, timewarp;
	// the plane core behind vector and jit cuts its own schedule and
	// ignores it).
	Strategy partition.Strategy
	// CollectAvail records the elements-available-per-step histogram
	// (sequential and event-driven engines; experiment T3); it costs one
	// histogram update per step.
	CollectAvail bool
	// Lint selects the pre-flight static-analysis level applied in the
	// shared validation path before any engine runs (see LintMode).
	Lint LintMode

	// Watchdog enables the runtime stall watchdog: a run whose progress
	// metric stays flat for this long is aborted with guard.ErrStalled
	// plus a per-worker diagnostic dump. 0 disables the watchdog.
	Watchdog time.Duration
	// Fallback is the retry policy applied when the original engine
	// faults or stalls: the run is transparently retried on the sequential
	// reference engine, with capped exponential backoff between attempts.
	// The retried Report carries Degraded=true and a *FallbackError
	// (attempt count + original error) in Fault. Nil disables fallback.
	Fallback *FallbackPolicy

	// Checkpoint asks the engine to write periodic snapshots at quiescent
	// points (see CheckpointSpec). Only the engines that implement
	// Checkpointer (sequential, compiled, vector, jit) support it;
	// RunEngine rejects the request for every other engine with
	// checkpoint.ErrUnsupported.
	Checkpoint CheckpointSpec
	// ResumeFrom names a snapshot file to continue from instead of
	// starting at t=0. The snapshot must have been written by the same
	// engine under the same netlist and options (content digest); any
	// mismatch or corruption is a typed error, never a silent restart.
	ResumeFrom string
	// Ckpt is the resolved form of Checkpoint and ResumeFrom (nil when
	// neither is set), installed by RunEngine after snapshot verification.
	// A Checkpointer engine runs its snapshot protocol through it — the
	// gang engines through Lockstep; callers leave it nil.
	Ckpt *checkpoint.Session
	// Guard is the per-run supervisor, installed by RunEngine. Engines
	// poll its Cancelled flag, publish progress through it and start their
	// workers under its panic containment (Gang); callers leave it nil.
	Guard *guard.Supervisor
	// Chaos injects faults (panics, delays, dropped wakeups) into the
	// engine it names, for supervision tests. Production runs leave it
	// nil; the fallback run never sees it.
	Chaos *guard.ChaosProbe

	// Batched-simulation fields, honoured by the lane engines (vector and
	// jit — see LaneEngine) and ignored by the scalar engines.
	//
	// Lanes is the number of independent stimulus vectors simulated at
	// once (1..logic.MaxWideLanes; 0 takes the engine's DefaultLanes — 64,
	// one plane word, for vector and 1 for jit; counts beyond 64 widen
	// every plane to ceil(Lanes/64) words).
	Lanes int
	// LaneStride offsets the Seed of rand/gray stimulus generators per
	// lane: lane k runs with Seed + k*LaneStride, so lane 0 always replays
	// the scalar stimulus. 0 defaults to 1.
	LaneStride int64
	// ProbeLane selects which lane feeds Probe and Report.Final in a
	// batched run (default 0, the scalar-identical lane).
	ProbeLane int

	// FaultSim switches the run to concurrent stuck-at fault simulation:
	// lane 0 simulates the good machine, lanes 1..Lanes-1 each carry one
	// fault from the analyzer's collapsed stuck-at list, and the Report
	// carries FaultCoverage. It rides on lanes, so exactly the lane engines
	// support it; RunEngine rejects the flag for every other engine.
	FaultSim bool
	// FaultMaxPasses caps fault-list chunking (each pass simulates Lanes-1
	// faults; 0 runs every pass the list needs). Faults beyond the cap are
	// reported undetected.
	FaultMaxPasses int
	// FaultStatuses includes the per-fault status rows in FaultCoverage;
	// they can dominate the report size for large circuits.
	FaultStatuses bool

	// Ablation flags, honoured by the engine they name.
	NoSteal      bool // event-driven: disable end-of-phase work stealing
	CentralQueue bool // event-driven: the paper's contended single-queue design
	// NoLookahead disables the asynchronous engines' clocked-element
	// lookahead: without it, valid-times creep around register feedback
	// loops an element delay at a time and evaluation counts explode on
	// circuits like the microprocessor.
	NoLookahead bool
	// GateLookahead enables the asynchronous engine's controlling-value
	// optimisation: while any input of an AND/NAND (OR/NOR) gate holds 0
	// (1), the output is pinned, events on the other inputs are consumed
	// without evaluation, and the output's valid-time extends to the point
	// where the last controlling input could change.
	GateLookahead bool
	StepsPerRound int // time-warp: optimistic element steps per worker per GVT round (0 = 2048)
}

// FallbackPolicy configures the transparent retry applied after a
// recoverable failure (worker panic or watchdog stall).
type FallbackPolicy struct {
	// MaxRetries is the number of fallback attempts; 0 defaults to 1 (a
	// single re-run, the historical behaviour).
	MaxRetries int
	// BaseDelay is the sleep before the second fallback attempt; each
	// further attempt doubles it (with jitter), capped at
	// MaxFallbackDelay. The first attempt is always immediate. 0 disables
	// inter-attempt delays.
	BaseDelay time.Duration
}

// MaxFallbackDelay caps the exponential backoff between fallback attempts.
const MaxFallbackDelay = 2 * time.Second

// FallbackError is stored in Report.Fault when a run completed on the
// fallback engine: it records how many fallback attempts were needed and
// wraps the original engine's error, so errors.Is/As see through it.
type FallbackError struct {
	Attempts int   // fallback attempts made (the one that succeeded included)
	Err      error // the original engine's recoverable error
}

func (e *FallbackError) Error() string {
	return fmt.Sprintf("recovered by fallback after %d attempt(s): %v", e.Attempts, e.Err)
}

func (e *FallbackError) Unwrap() error { return e.Err }

// CheckpointSpec asks for periodic durable snapshots of the run.
type CheckpointSpec struct {
	// Path is the snapshot file, rewritten atomically at each checkpoint.
	Path string
	// EverySteps is the capture interval in time steps; 0 defaults to
	// DefaultCheckpointEvery. Captures are throttled to at most one
	// durable write per checkpoint.DefaultGap of wall time (the first is
	// immediate), so a kill -9 loses at most one gap plus one capture
	// interval of work.
	EverySteps int64
	// OnSave, when set, is called after each snapshot reaches disk (the
	// server journals checkpoint records through it). It may run
	// concurrently with the simulation's subsequent steps.
	OnSave func(step int64)
}

// DefaultCheckpointEvery is the snapshot interval used when
// CheckpointSpec.EverySteps is zero.
const DefaultCheckpointEvery = 256

// Checkpointer is an Engine with quiescent-point snapshot support — it
// runs Config.Ckpt. The synchronous family implements it, where the
// per-step barrier (or the single goroutine) makes global state
// well-defined. The async engines would need GVT-coordinated cuts; they
// report checkpoint.ErrUnsupported instead of pretending.
type Checkpointer interface {
	Engine
	Checkpoints() // a marker; it does nothing
}

// SupportsCheckpoint reports whether the named engine (or alias) can
// checkpoint and resume.
func SupportsCheckpoint(name string) bool {
	e, _ := Get(name)
	_, ok := e.(Checkpointer)
	return ok
}

// Report is the uniform outcome of a run. Per-algorithm counters live in
// Run.PerWorker (zero where not applicable); only genuinely global,
// non-summable metrics get their own field.
type Report struct {
	Run   stats.Run
	Final []logic.Value // node values at the horizon, indexed by NodeID
	// PeakLog is the peak saved-state footprint (time-warp only).
	PeakLog int64
	// Rounds counts Chandy-Misra deadlock recoveries (chandy-misra only;
	// 1 means the run never deadlocked).
	Rounds int64
	// GVTRounds counts time-warp synchronisation rounds.
	GVTRounds int64
	// LaneFinal holds every stimulus lane's final node values from a
	// lane-engine run, indexed [lane][NodeID]; LaneFinal[ProbeLane]
	// equals Final. Nil for the scalar engines.
	LaneFinal [][]logic.Value
	// FaultCoverage reports stuck-at coverage from a fault-simulation run
	// (Config.FaultSim); nil otherwise.
	FaultCoverage *stats.FaultCoverage
	// Degraded marks a result produced by the sequential fallback
	// (Config.Fallback) after the requested engine faulted or stalled;
	// Fault holds a *FallbackError wrapping the original engine's error.
	Degraded bool
	Fault    error
	// Resumed marks a run continued from a Config.ResumeFrom snapshot
	// rather than started at t=0.
	Resumed bool
	// Selected records the decision of an engine=auto run: which engine the
	// static profile + cost model picked, at what configuration, with the
	// full ranking and the profile that justified it. Nil for direct runs.
	Selected *Selection
}

// Choice is one ranked entry from the auto-selection cost model.
type Choice struct {
	Engine   string  `json:"engine"`
	Workers  int     `json:"workers"`
	Strategy string  `json:"strategy,omitempty"`
	Lanes    int     `json:"lanes,omitempty"`
	Span     float64 `json:"span"`
	Eligible bool    `json:"eligible"`
	Reason   string  `json:"reason,omitempty"`
}

// Selection is the outcome of cost-model-driven engine selection
// (engine=auto): the winning configuration, a confidence score from the
// span gap to the runner-up, the full per-engine ranking, and the static
// profile the prediction was computed from.
type Selection struct {
	Engine     string                  `json:"engine"`
	Workers    int                     `json:"workers"`
	Strategy   string                  `json:"strategy,omitempty"`
	Lanes      int                     `json:"lanes,omitempty"`
	Confidence float64                 `json:"confidence"`
	Ranking    []Choice                `json:"ranking,omitempty"`
	Profile    *analyze.CircuitProfile `json:"profile,omitempty"`
}

// Engine is one simulation algorithm. Run simulates c over [0,
// cfg.Horizon) and returns statistics plus final node values. When the run
// is cancelled (cfg.Guard.Cancelled) the engine stops within one
// scheduling quantum (a time step, a GVT round, or a queue poll) and
// returns its partial Report; RunEngine pairs it with ctx.Err().
type Engine interface {
	// Name is the canonical registry name.
	Name() string
	Run(ctx context.Context, c *circuit.Circuit, cfg Config) (*Report, error)
}

// LaneEngine is an Engine that advances Config.Lanes stimulus lanes at once
// and reports LaneFinal. Lanes are also what fault simulation injects into,
// so Config.FaultSim is valid exactly where this interface is implemented.
type LaneEngine interface {
	Engine
	// DefaultLanes is the lane count a run gets when Config.Lanes is 0.
	DefaultLanes() int
}

// DefaultLanes returns e's lane count for a run that requests none, or 0
// when e is a scalar engine that ignores the lane fields — the one
// predicate admission, validation and the lane engines share.
func DefaultLanes(e Engine) int {
	if le, ok := e.(LaneEngine); ok {
		return le.DefaultLanes()
	}
	return 0
}

// CheckLanes is the one rule for the lane fields of a run of e, applied by
// RunEngine and by the daemon's admission: Lanes within [0, MaxWideLanes],
// ProbeLane below the lane count the run gets (a scalar engine has one
// lane), and FaultSim only on a lane engine with at least two lanes — the
// good machine plus one fault. It returns that lane count.
func CheckLanes(e Engine, cfg Config) (int, error) {
	if cfg.Lanes < 0 || cfg.Lanes > logic.MaxWideLanes {
		return 0, fmt.Errorf("parsim: lanes must be in [0,%d], got %d", logic.MaxWideLanes, cfg.Lanes)
	}
	lanes := cfg.Lanes
	if lanes == 0 {
		lanes = max(DefaultLanes(e), 1)
	}
	if cfg.ProbeLane < 0 || cfg.ProbeLane >= lanes {
		return 0, fmt.Errorf("parsim: probe_lane %d outside [0,%d)", cfg.ProbeLane, lanes)
	}
	switch {
	case cfg.FaultSim && DefaultLanes(e) == 0:
		return 0, fmt.Errorf("parsim: fault_sim requires a lane engine (vector or jit), not %q", e.Name())
	case cfg.FaultSim && lanes < 2:
		return 0, fmt.Errorf("parsim: fault_sim needs at least 2 lanes (good machine + one fault), got %d", lanes)
	}
	return lanes, nil
}

// ---- registry ----

var (
	regMu    sync.RWMutex
	registry = map[string]Engine{}
	canon    []string // canonical names in registration order
)

// Register adds an engine under its canonical name plus any aliases.
// Engines self-register from init, so registering a duplicate name panics.
func Register(e Engine, aliases ...string) {
	regMu.Lock()
	defer regMu.Unlock()
	names := append([]string{e.Name()}, aliases...)
	for _, n := range names {
		key := strings.ToLower(n)
		if _, dup := registry[key]; dup {
			panic("engine: duplicate registration of " + key)
		}
		registry[key] = e
	}
	canon = append(canon, e.Name())
}

// Get resolves an engine by canonical name or alias (case-insensitive).
func Get(name string) (Engine, error) {
	regMu.RLock()
	e, ok := registry[strings.ToLower(strings.TrimSpace(name))]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("parsim: unknown algorithm %q (have %s)",
			name, strings.Join(Names(), ", "))
	}
	return e, nil
}

// Names returns the canonical engine names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := append([]string(nil), canon...)
	sort.Strings(out)
	return out
}

// Run resolves name through the registry, validates cfg once for every
// engine, and runs. This is the single dispatch point for the facade,
// the CLIs, the harness and the benchmarks.
func Run(ctx context.Context, name string, c *circuit.Circuit, cfg Config) (*Report, error) {
	e, err := Get(name)
	if err != nil {
		return nil, err
	}
	return RunEngine(ctx, e, c, cfg)
}

// RunEngine validates cfg (the one place worker counts, horizons and lane
// fields are checked, so bad configuration is an error and never a crash
// inside an engine) and invokes e under the supervision layer: worker
// panics come back as *guard.WorkerFault, flat-lined runs as
// guard.ErrStalled when a Watchdog window is set, and either outcome is
// transparently retried on the sequential engine when Config.Fallback is
// set.
func RunEngine(ctx context.Context, e Engine, c *circuit.Circuit, cfg Config) (*Report, error) {
	if c == nil {
		return nil, fmt.Errorf("parsim: nil circuit")
	}
	if cfg.Horizon < 0 {
		return nil, fmt.Errorf("parsim: negative horizon %d: Horizon is the exclusive end of simulated time and must be >= 0", cfg.Horizon)
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("parsim: invalid worker count %d: Workers must be positive (or 0 for the default of 1)", cfg.Workers)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if _, err := CheckLanes(e, cfg); err != nil {
		return nil, err
	}
	if err := resolveCheckpoint(c, e, &cfg); err != nil {
		return nil, err
	}
	if cfg.Lint != LintOff {
		rep := analyze.Analyze(c, analyze.Options{})
		if err := rep.Err(cfg.Lint == LintStrict); err != nil {
			return nil, fmt.Errorf("parsim: lint (%s) rejected circuit %q: %w", cfg.Lint, c.Name, err)
		}
	}
	rep, err := runGuarded(ctx, e, c, cfg)
	fb, _ := Get("sequential") // nil only in a build that links no sequential engine
	if err == nil || cfg.Fallback == nil || fb == nil || fb.Name() == e.Name() || !guard.Recoverable(err) ||
		cfg.FaultSim { // a scalar fallback cannot carry a fault-sim run
		if err == nil && cfg.ResumeFrom != "" {
			rep.Resumed = true
		}
		return rep, err
	}
	// Fallback policy: the requested engine faulted or stalled; re-run on
	// the reference engine with supervision (minus chaos — an injected
	// fault must not follow the run — and minus checkpointing, whose
	// snapshots are bound to the original engine's digest), retrying with
	// capped exponential backoff, and report the degraded outcome.
	fbCfg := cfg
	fbCfg.Fallback = nil
	fbCfg.Chaos = nil
	fbCfg.Lint = LintOff // the circuit was already linted above
	fbCfg.Checkpoint = CheckpointSpec{}
	fbCfg.ResumeFrom = ""
	fbCfg.Ckpt = nil
	fbCfg.Workers = 1
	attempts := cfg.Fallback.MaxRetries
	if attempts < 1 {
		attempts = 1
	}
	// Jitter keeps a fleet of simultaneously faulted runs from retrying in
	// lockstep. The source is local: the repo lint forbids the global
	// math/rand state inside internal/.
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			if serr := sleepBackoff(ctx, rng, cfg.Fallback.BaseDelay, attempt-2); serr != nil {
				return rep, err
			}
		}
		fbRep, fbErr := runGuarded(ctx, fb, c, fbCfg)
		if fbErr == nil {
			fbRep.Degraded = true
			fbRep.Fault = &FallbackError{Attempts: attempt, Err: err}
			return fbRep, nil
		}
		if ctx.Err() != nil || !guard.Recoverable(fbErr) {
			break
		}
	}
	// Every fallback attempt failed too; the original failure is the one
	// that explains the run, so report it.
	return rep, err
}

// sleepBackoff sleeps BaseDelay * 2^exp with up to 50% added jitter, capped
// at MaxFallbackDelay, returning early with the context error if the caller
// cancels. A zero base delay returns immediately.
func sleepBackoff(ctx context.Context, rng *rand.Rand, base time.Duration, exp int) error {
	if base <= 0 {
		return ctx.Err()
	}
	d := base << uint(exp)
	if d <= 0 || d > MaxFallbackDelay { // <= 0 catches shift overflow
		d = MaxFallbackDelay
	}
	d += time.Duration(rng.Int63n(int64(d)/2 + 1))
	if d > MaxFallbackDelay {
		d = MaxFallbackDelay
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// resolveCheckpoint turns the user-facing Checkpoint/ResumeFrom fields into
// the Session the engines consume: it gates on engine support,
// applies the default interval and binds the run's identity, against which
// checkpoint.Open verifies the resume snapshot.
func resolveCheckpoint(c *circuit.Circuit, e Engine, cfg *Config) error {
	if cfg.Checkpoint.Path == "" && cfg.ResumeFrom == "" {
		return nil
	}
	if _, ok := e.(Checkpointer); !ok {
		return fmt.Errorf("parsim: engine %q: %w", e.Name(), checkpoint.ErrUnsupported)
	}
	if cfg.Checkpoint.EverySteps < 0 {
		return fmt.Errorf("parsim: negative checkpoint interval %d", cfg.Checkpoint.EverySteps)
	}
	every := cfg.Checkpoint.EverySteps
	if every == 0 {
		every = DefaultCheckpointEvery
	}
	var err error
	cfg.Ckpt, err = checkpoint.Open(c, checkpoint.Identity{
		Engine:         e.Name(),
		Horizon:        int64(cfg.Horizon),
		Workers:        cfg.Workers,
		Strategy:       cfg.Strategy.String(),
		Lanes:          cfg.Lanes,
		LaneStride:     cfg.LaneStride,
		ProbeLane:      cfg.ProbeLane,
		CostSpin:       cfg.CostSpin,
		FaultSim:       cfg.FaultSim,
		FaultMaxPasses: cfg.FaultMaxPasses,
		FaultStatuses:  cfg.FaultStatuses,
		CollectAvail:   cfg.CollectAvail,
	}, checkpoint.Plan{Path: cfg.Checkpoint.Path, Every: every, OnSave: cfg.Checkpoint.OnSave},
		cfg.ResumeFrom, cfg.Probe)
	return err
}

// runGuarded executes one engine run under a fresh supervisor: it derives
// the cancellable run context, contains main-goroutine panics, folds the
// supervision outcome into the returned error, and attaches the
// per-worker diagnostic dump to stall reports once the workers have
// exited (reading their counters is only race-free then).
func runGuarded(ctx context.Context, e Engine, c *circuit.Circuit, cfg Config) (*Report, error) {
	sup := guard.New(e.Name(), guard.Options{
		Workers: cfg.Workers,
		Window:  cfg.Watchdog,
		Chaos:   cfg.Chaos,
	})
	cfg.Guard = sup
	runCtx := sup.Attach(ctx)
	rep, err := runContained(runCtx, e, c, cfg, sup)
	sup.Stop()
	if gerr := sup.Err(); gerr != nil && ctx.Err() == nil {
		// The supervisor tripped and the caller did not cancel: the
		// engine's own error is just the induced cancellation, so the
		// typed supervision error is the real outcome.
		err = gerr
	}
	var st *guard.StallError
	if errors.As(err, &st) && st.Dump == "" && rep != nil {
		st.Dump = rep.Run.DebugDump()
	}
	return rep, err
}

// runContained invokes e.Run with the engine's main goroutine under the
// same containment as its workers: a panic there (the sequential engine
// runs entirely on this goroutine) becomes a WorkerFault with worker -1.
// A run the engine stopped on its cancellation (sup.CutShort) returns its
// partial Report with ctx.Err(); one that reached its horizon first keeps
// a nil error even if its context was cancelled meanwhile.
func runContained(ctx context.Context, e Engine, c *circuit.Circuit, cfg Config, sup *guard.Supervisor) (rep *Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			sup.Capture(-1, "engine main goroutine", r)
			rep, err = nil, sup.Err()
		}
	}()
	rep, err = e.Run(ctx, c, cfg)
	if err == nil && rep != nil && sup.CutShort() {
		err = ctx.Err()
	}
	return rep, err
}

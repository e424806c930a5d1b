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
// options of its own, and the facade hands it out as parsim.Options — and
// returns a Report with the same per-worker counter surface
// (stats.WorkerCounters).
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

// Config is the one run configuration: every engine reads it, RunEngine
// validates it once for all of them, and the facade takes it as
// parsim.Options. Fields that do not apply to an algorithm are ignored by
// it (e.g. Strategy outside the statically partitioned engines, NoSteal
// outside event-driven). The zero value of every field is a valid default
// except Horizon, which a caller sets.
type Config struct {
	// Engine selects the engine by registry name or alias
	// (case-insensitive; Names lists the canonical ones), "" meaning
	// sequential. "auto" profiles the circuit statically, ranks the
	// engines it can pick through the cost model, and runs the predicted
	// winner (Report.Selected records the decision; Workers acts as a
	// budget the winner may undershoot but never exceed). Run resolves
	// it; RunEngine, which is handed the engine, does not read it.
	Engine  string
	Workers int          // parallel workers; 0 defaults to 1
	Horizon circuit.Time // simulate t in [0, Horizon); must be >= 0
	Probe   trace.Probe  // optional observer; must be concurrency-safe for parallel engines
	// CostSpin > 0 burns CostSpin x the element's Cost of synthetic work
	// per evaluation, restoring the paper's gate-vs-functional evaluation
	// cost spread for benchmarking.
	CostSpin int64
	// Strategy selects the static partitioner of dist and timewarp; the
	// plane core behind compiled, vector and jit cuts its own
	// cost-balanced schedule and ignores it.
	Strategy partition.Strategy
	// CollectAvail records the elements-available-per-step histogram
	// (sequential and event-driven engines; experiment T3); it costs one
	// histogram update per step.
	CollectAvail bool
	// Lint selects the pre-flight static-analysis level applied in the
	// shared validation path before any engine runs: LintOff (default),
	// LintWarn (refuse circuits with Error diagnostics such as zero-delay
	// combinational cycles), or LintStrict (additionally refuse Warning
	// diagnostics). See LintMode.
	Lint LintMode

	// Watchdog enables the runtime stall watchdog: a run whose progress
	// metric stays flat for this long is aborted with guard.ErrStalled
	// plus a per-worker diagnostic dump instead of hanging. 0 disables the
	// watchdog.
	Watchdog time.Duration
	// Fallback re-runs the run once on the sequential reference engine
	// when the original engine panics or stalls. The re-run's Report
	// carries Degraded=true and a *FallbackError wrapping the original
	// error in Fault.
	Fallback bool

	// Checkpoint asks the engine to write periodic snapshots at quiescent
	// points (see CheckpointSpec). Only the engines that implement
	// Checkpointer (sequential, compiled, vector — including FaultSim —
	// and jit) support it; RunEngine rejects the request for every other
	// engine with checkpoint.ErrUnsupported.
	Checkpoint CheckpointSpec
	// ResumeFrom names a snapshot file to continue from instead of
	// starting at t=0. The snapshot must have been written by the same
	// engine under the same netlist and options (content digest); any
	// mismatch or corruption is a typed error, never a silent restart. The
	// resumed run's final states, lane finals and probe history are
	// bit-identical to an uninterrupted run's; Report.Resumed reports that
	// the path was taken.
	ResumeFrom string
	// Chaos injects faults (panics, delays, dropped wakeups) into the
	// engine it names, for supervision tests. Production runs leave it
	// nil; the fallback run never sees it.
	Chaos *guard.ChaosProbe

	// Batched-simulation fields, honoured by the lane engines (vector and
	// jit — see LaneEngine). The scalar engines have a single lane: they
	// ignore LaneStride and any Lanes within range, and ProbeLane must be 0.
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
	// batched run (default 0, the lane whose stimulus — and therefore
	// whose history — is bit-identical to a scalar run).
	ProbeLane int

	// FaultSim switches the run to concurrent stuck-at fault simulation:
	// lane 0 simulates the good machine, lanes 1..Lanes-1 each carry one
	// fault from the analyzer's collapsed stuck-at list, a fault is
	// detected when its lane's value at a sink node diverges from lane 0
	// with both known, and the Report carries FaultCoverage. It rides on
	// lanes, so exactly the lane engines support it, with Lanes >= 2;
	// RunEngine rejects it everywhere else.
	FaultSim bool
	// FaultMaxPasses caps fault-list chunking (each pass simulates Lanes-1
	// faults; 0 runs every pass the list needs). Faults beyond the cap are
	// reported undetected.
	FaultMaxPasses int
	// FaultStatuses includes the per-fault site/step rows in
	// FaultCoverage; they can dominate the report size for large circuits.
	FaultStatuses bool

	// Ablation flags, honoured by the engine they name.
	NoSteal      bool // event-driven: disable end-of-phase work stealing
	CentralQueue bool // event-driven: the paper's initial contended single-queue design
	// NoLookahead disables the asynchronous engines' clocked-element
	// lookahead: without it, valid-times creep around register feedback
	// loops an element delay at a time and evaluation counts explode on
	// circuits like the microprocessor (results are identical).
	NoLookahead bool
	// GateLookahead enables the asynchronous engine's controlling-value
	// optimisation: while any input of an AND/NAND (OR/NOR) gate holds 0
	// (1), the output is pinned, events on the other inputs are consumed
	// without evaluation, and the output's valid-time extends to the point
	// where the last controlling input could change.
	GateLookahead bool

	// What RunEngine installs for the run; callers cannot set them.
	guard *guard.Supervisor
	ckpt  *checkpoint.Session
}

// Guard is the run's supervisor, installed by RunEngine. Engines poll its
// Cancelled flag, publish progress through it and start their workers
// under its panic containment (Gang). Nil outside a RunEngine call, which
// every Supervisor method tolerates.
func (c *Config) Guard() *guard.Supervisor { return c.guard }

// Ckpt is the resolved form of Checkpoint and ResumeFrom, installed by
// RunEngine after snapshot verification (nil when neither is set, which
// every Session method tolerates). A Checkpointer engine runs its snapshot
// protocol through it — the gang engines through Lockstep.
func (c *Config) Ckpt() *checkpoint.Session { return c.ckpt }

// FallbackError is stored in Report.Fault when a run completed on the
// fallback engine: it wraps the original engine's error, so errors.Is/As
// see through it. Its text keeps the attempt count of the report schema,
// which is always one.
type FallbackError struct {
	Err error // the original engine's recoverable error
}

func (e *FallbackError) Error() string {
	return fmt.Sprintf("recovered by fallback after 1 attempt(s): %v", e.Err)
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
// runs Config.Ckpt(). The synchronous family implements it, where the
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

// Engine is one simulation algorithm. Run simulates c over [0,
// cfg.Horizon) and returns statistics plus final node values. When the run
// is cancelled (cfg.Guard().Cancelled) the engine stops within one
// scheduling quantum (a time step, a GVT round, or a queue poll) and
// returns its partial Report; RunEngine pairs it with ctx.Err().
type Engine interface {
	// Name is the canonical registry name.
	Name() string
	Run(ctx context.Context, c *circuit.Circuit, cfg Config) (*Report, error)
}

// LaneEngine is an Engine that advances Config.Lanes stimulus lanes at once
// and reports every lane's final values in Report.LaneFinal, its final
// planes packed as it holds them. Lanes are also what fault simulation
// injects into, so Config.FaultSim is valid exactly where this interface
// is implemented.
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

// Run resolves cfg.Engine through the registry ("" is sequential),
// validates cfg once for every engine, and runs. This is the single
// dispatch point for the facade, the CLIs, the daemon, the harness and the
// benchmarks.
func Run(ctx context.Context, c *circuit.Circuit, cfg Config) (*Report, error) {
	name := cfg.Engine
	if name == "" {
		name = "sequential"
	}
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
// transparently re-run on the sequential engine when Config.Fallback is
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
	if err == nil || !cfg.Fallback || fb == nil || fb.Name() == e.Name() || !guard.Recoverable(err) ||
		cfg.FaultSim { // a scalar fallback cannot carry a fault-sim run
		if err == nil && cfg.ResumeFrom != "" {
			rep.Resumed = true
		}
		return rep, err
	}
	// Fallback: the requested engine faulted or stalled; re-run once on
	// the reference engine with supervision (minus chaos — an injected
	// fault must not follow the run — and minus checkpointing, whose
	// snapshots are bound to the original engine's digest), and report the
	// degraded outcome. If the re-run fails too, the original failure is
	// the one that explains the run.
	fbCfg := cfg
	fbCfg.Fallback = false
	fbCfg.Chaos = nil
	fbCfg.Lint = LintOff // the circuit was already linted above
	fbCfg.Checkpoint = CheckpointSpec{}
	fbCfg.ResumeFrom = ""
	fbCfg.ckpt = nil
	fbCfg.Workers = 1
	fbRep, fbErr := runGuarded(ctx, fb, c, fbCfg)
	if fbErr != nil {
		return rep, err
	}
	fbRep.Degraded = true
	fbRep.Fault = &FallbackError{Err: err}
	return fbRep, nil
}

// resolveCheckpoint turns the user-facing Checkpoint/ResumeFrom fields into
// the Session the engines consume: it gates on engine support,
// applies the default interval and binds the run's identity, against which
// checkpoint.Open verifies the resume snapshot.
func resolveCheckpoint(c *circuit.Circuit, e Engine, cfg *Config) error {
	cfg.ckpt = nil // a Config copied out of a running engine carries its session
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
	cfg.ckpt, err = checkpoint.Open(c, identity(e.Name(), cfg),
		checkpoint.Plan{Path: cfg.Checkpoint.Path, Every: every, OnSave: cfg.Checkpoint.OnSave},
		cfg.ResumeFrom, cfg.Probe)
	return err
}

// identity is what a snapshot of a run of engine under cfg is bound to:
// every Config field that can change a Checkpointer's results.
func identity(engine string, cfg *Config) checkpoint.Identity {
	return checkpoint.Identity{
		Engine:         engine,
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
	}
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
	cfg.guard = sup
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
		st.Dump = rep.Stats.DebugDump()
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

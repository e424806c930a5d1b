// Package parsim is a parallel logic simulator for general-purpose
// shared-memory machines, reproducing Soule & Blank, "Parallel Logic
// Simulation on General Purpose Machines" (DAC 1988).
//
// Three parallel simulation algorithms are provided behind one API:
//
//   - EventDriven: the synchronous parallel event-driven algorithm —
//     classic update/evaluate phases with distributed per-worker queues,
//     round-robin scheduling, end-of-phase work stealing, and a barrier at
//     every time step;
//   - Compiled: the parallel unit-delay compiled-mode algorithm — every
//     element evaluated every step from a static partition;
//   - Async: the paper's primary contribution, a totally asynchronous
//     algorithm with no locks and no barriers: per-node event histories
//     with incrementally advancing valid-times (so the Chandy-Misra
//     deadlock never forms and no Time-Warp rollback is needed), lock-free
//     single-reader/single-writer work queues, and asynchronous reclamation
//     of consumed events;
//
// plus the Sequential reference simulator every parallel run is
// cross-checked against. Vector and JIT name one more engine between them:
// the levelized plane core, the Compiled algorithm run through a static
// compiler over N bit-parallel stimulus lanes (Vector defaults to 64
// lanes, JIT to 1), which also carries concurrent stuck-at fault
// simulation.
//
// Circuits mix representation levels: two-input gates, RTL registers and
// muxes, and functional blocks (wide adders, multipliers, ALUs, memories)
// connected by four-state (0/1/X/Z) nodes up to 64 bits wide. Build them
// with a Builder, load them from netlist files, or generate the paper's
// benchmark circuits from the Bench* helpers.
//
// # Quick start
//
//	b := parsim.NewBuilder("blinker")
//	clk := b.Bit("clk")
//	q := b.Bit("q")
//	b.Clock("osc", clk, 10, 0, 0)
//	b.Gate(parsim.Not, "inv", 1, q, clk)
//	c, err := b.Build()
//	...
//	res, err := parsim.Simulate(c, parsim.Options{
//		Engine:  parsim.Async,
//		Workers: runtime.NumCPU(),
//		Horizon: 1000,
//	})
package parsim

import (
	"context"
	"time"

	"parsim/internal/analyze"
	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/guard"
	"parsim/internal/logic"
	"parsim/internal/partition"
	"parsim/internal/stats"
	"parsim/internal/trace"

	// Each simulator package self-registers its engine(s) with
	// internal/engine from init; these imports populate the registry that
	// Simulate dispatches through.
	_ "parsim/internal/auto"
	_ "parsim/internal/compiled"
	_ "parsim/internal/core"
	_ "parsim/internal/dist"
	_ "parsim/internal/parevent"
	_ "parsim/internal/seq"
	_ "parsim/internal/timewarp"
	_ "parsim/internal/vector"
)

// Core value and netlist types, re-exported from the implementation
// packages so user code needs only this import.
type (
	// Value is a four-state bus value up to 64 bits wide.
	Value = logic.Value
	// State is a single wire state: L, H, X or Z.
	State = logic.State
	// Time is a simulation timestamp in ticks.
	Time = circuit.Time
	// Circuit is a validated, immutable netlist.
	Circuit = circuit.Circuit
	// Builder assembles circuits programmatically.
	Builder = circuit.Builder
	// Kind identifies an element type.
	Kind = circuit.Kind
	// Params carries kind-specific element configuration.
	Params = circuit.Params
	// NodeID identifies a node within a circuit.
	NodeID = circuit.NodeID
	// ElemID identifies an element within a circuit.
	ElemID = circuit.ElemID
	// Probe observes node changes during simulation.
	Probe = trace.Probe
	// Recorder is a Probe that stores full node histories.
	Recorder = trace.Recorder
	// Change is one recorded node transition.
	Change = trace.Change
	// RunStats summarises a simulation run.
	RunStats = stats.Run
	// WorkerCounters is the uniform per-worker counter row every algorithm
	// reports in RunStats.PerWorker.
	WorkerCounters = stats.WorkerCounters
	// FaultCoverage summarises a concurrent stuck-at fault-simulation run.
	FaultCoverage = stats.FaultCoverage
	// FaultStatus is one fault's detection row inside a FaultCoverage.
	FaultStatus = stats.FaultStatus
	// Strategy selects a compiled-mode partitioner.
	Strategy = partition.Strategy
)

// Wire states.
const (
	L = logic.L
	H = logic.H
	X = logic.X
	Z = logic.Z
)

// MaxLanes is the widest lane count a Vector or JIT run accepts: 64 lanes
// per machine word times the widest supported plane.
const MaxLanes = logic.MaxWideLanes

// Element kinds, re-exported with friendlier names.
const (
	Buf    = circuit.KindBuf
	Not    = circuit.KindNot
	And    = circuit.KindAnd
	Or     = circuit.KindOr
	Nand   = circuit.KindNand
	Nor    = circuit.KindNor
	Xor    = circuit.KindXor
	Xnor   = circuit.KindXnor
	Mux2   = circuit.KindMux2
	DFF    = circuit.KindDFF
	DFFR   = circuit.KindDFFR
	Latch  = circuit.KindLatch
	Tri    = circuit.KindTri
	Res2   = circuit.KindRes2
	Const  = circuit.KindConst
	Add    = circuit.KindAdd
	AddC   = circuit.KindAddC
	Sub    = circuit.KindSub
	MulK   = circuit.KindMul
	Eq     = circuit.KindEq
	LtU    = circuit.KindLtU
	Slice  = circuit.KindSlice
	Ext    = circuit.KindExt
	Concat = circuit.KindConcat
	ShlK   = circuit.KindShlK
	ShrK   = circuit.KindShrK
	RedAnd = circuit.KindRedAnd
	RedOr  = circuit.KindRedOr
	RedXor = circuit.KindRedXor
	Alu    = circuit.KindAlu
	Rom    = circuit.KindRom
	Ram    = circuit.KindRam
	Clock  = circuit.KindClock
	Wave   = circuit.KindWave
	Rand   = circuit.KindRand
	Gray   = circuit.KindGray
)

// Partition strategies for compiled mode.
const (
	RoundRobin = partition.RoundRobin
	Blocks     = partition.Blocks
	CostLPT    = partition.CostLPT
)

// Value constructors.
var (
	// V returns a fully known value of the given width.
	V = logic.V
	// AllX returns a value with every bit unknown.
	AllX = logic.AllX
	// AllZ returns a value with every bit high-impedance.
	AllZ = logic.AllZ
	// ParseValue parses a Verilog-style literal such as "8'hff".
	ParseValue = logic.ParseValue
	// NewBuilder starts a new circuit.
	NewBuilder = circuit.NewBuilder
	// NewRecorder records every node change.
	NewRecorder = trace.NewRecorder
	// NewRecorderFor records only the listed nodes.
	NewRecorderFor = trace.NewRecorderFor
	// HistoryDiff compares two recorders, returning "" when identical.
	HistoryDiff = trace.Diff
)

// Algorithm is an engine registry name, as Options.Engine takes it: the
// constants below are the canonical names of the registered simulators,
// and ParseAlgorithm returns the canonical name of any registered engine
// or alias ("auto" included).
type Algorithm = string

// The registered simulators.
const (
	// Sequential is the uniprocessor event-driven reference algorithm.
	Sequential Algorithm = "sequential"
	// EventDriven is the synchronous parallel event-driven algorithm.
	EventDriven Algorithm = "event-driven"
	// Compiled is the parallel unit-delay compiled-mode algorithm. It
	// ignores element delays (everything behaves unit-delay), so its
	// histories match the others only on unit-delay circuits.
	Compiled Algorithm = "compiled"
	// Async is the lock-free, barrier-free asynchronous algorithm — the
	// paper's primary contribution.
	Async Algorithm = "asynchronous"
	// DistAsync is the asynchronous algorithm restructured for distributed
	// memory (the paper's stated future work, "porting these algorithms to
	// a hypercube architecture"): partitioned workers exchanging event
	// messages over channels, with Safra token-ring termination detection.
	DistAsync Algorithm = "distributed-async"
	// TimeWarp is the rollback-based optimistic baseline the paper argues
	// against (Arnold's simulator, built on Jefferson's Virtual Time):
	// elements execute speculatively; stragglers force state restoration
	// and anti-message cancellation. Result.Rollbacks and Result.PeakLog
	// quantify the paper's two criticisms.
	TimeWarp Algorithm = "time-warp"
	// ChandyMisra is the conservative baseline the paper refines: node
	// valid-times stay frozen while the simulation runs, so it repeatedly
	// deadlocks and a global clock-value update restarts it. The paper's
	// contribution is exactly the incremental valid-time advancement that
	// makes these deadlocks impossible; Result.Rounds counts them.
	ChandyMisra Algorithm = "chandy-misra"
	// Vector is the levelized plane core under its batched name: N
	// independent stimulus lanes advance through the circuit simultaneously,
	// 64 lanes per machine word and as many words per node plane as the run
	// requests (up to MaxLanes; Options.Lanes 0 means 64, one word). Lane 0
	// replays the scalar stimulus exactly; Options.Lanes/LaneStride/
	// ProbeLane control the batch, and Options.FaultSim turns the lane axis
	// into a concurrent stuck-at fault simulator. It is the same engine as
	// JIT — one compiler, one step loop — and differs from it only in the
	// default lane count.
	Vector Algorithm = "vector"
	// JIT is the levelized plane core under its scalar name (Options.Lanes
	// 0 means 1; alias "codegen"): the circuit's levelized schedule is
	// lowered once, at run start, into per-level batches of branch-free
	// word kernels over a struct-of-arrays state layout — fused 1/2-input
	// gate and mux loops with no per-element dispatch, devirtualized
	// plane-op kernels for everything else. The compiler also owns the
	// parallel split: each worker runs one cost-balanced contiguous run of
	// the schedule over its own dense slab stripe, and the gang crosses one
	// barrier per step (Options.Strategy is not consulted, under either
	// name). Semantically it is the Compiled algorithm (unit-delay, every
	// element every step) run through a compiler instead of an
	// interpreter; Options.Lanes and Options.FaultSim apply exactly as for
	// Vector.
	JIT Algorithm = "jit"
)

// Options configures Simulate.
type Options struct {
	// Engine selects the engine by registry name or alias: one of the
	// Algorithm constants, any name ParseAlgorithm accepts, or "" for
	// Sequential. "auto" profiles the circuit statically, ranks the
	// engines it can pick through the cost model, and runs the predicted
	// winner (Result.Selected records the decision; Workers acts as a
	// budget the winner may undershoot but never exceed).
	Engine  string
	Horizon Time  // simulate t in [0, Horizon); required
	Workers int   // parallel workers; default 1
	Probe   Probe // optional concurrency-safe observer
	// CostSpin > 0 burns CostSpin x the element's Cost of synthetic work
	// per evaluation, restoring the paper's gate-vs-functional evaluation
	// cost spread for benchmarking.
	CostSpin int64
	// Strategy selects the static partitioner of the Compiled, DistAsync
	// and TimeWarp algorithms. Vector and JIT ignore it: the plane core's
	// compiler cuts its own cost-balanced schedule.
	Strategy Strategy
	// NoSteal disables event-driven end-of-phase work stealing;
	// CentralQueue reverts to the paper's initial contended single-queue
	// design. Both are ablations of the EventDriven algorithm.
	NoSteal      bool
	CentralQueue bool
	// NoLookahead disables the Async algorithm's clocked-element
	// lookahead (ablation; results are identical, evaluation counts grow
	// on feedback-heavy circuits).
	NoLookahead bool
	// GateLookahead enables the Async algorithm's controlling-value
	// optimisation: events behind a pinned AND/NAND/OR/NOR input are
	// consumed without evaluating the gate model.
	GateLookahead bool
	// Lanes is the number of independent stimulus vectors a Vector or JIT
	// run simulates at once (1..MaxLanes; 0 defaults to 64 for Vector and
	// 1 for JIT — larger counts widen every node plane to ceil(Lanes/64)
	// words).
	// LaneStride offsets rand/gray generator seeds per lane (lane k runs
	// with Seed + k*LaneStride; 0 defaults to 1), and ProbeLane selects
	// which lane feeds Probe and Result.Final (default 0, the lane whose
	// stimulus — and therefore whose history — is bit-identical to a
	// scalar run). The scalar algorithms have a single lane: they ignore
	// LaneStride and any Lanes within range, and ProbeLane must be 0.
	Lanes      int
	LaneStride int64
	ProbeLane  int
	// FaultSim switches a Vector or JIT run to concurrent stuck-at fault
	// simulation: lane 0 simulates the good machine, every other lane
	// carries the same stimulus plus one injected fault from the circuit's
	// collapsed single stuck-at list, and a fault is detected when its
	// lane's value at a sink node diverges from lane 0 with both known.
	// Fault lists larger than Lanes-1 chunk into multiple passes;
	// FaultMaxPasses caps the chunk loop (0 = run the whole list) and
	// FaultStatuses includes the per-fault site/step rows in the coverage
	// report. Only the lane algorithms (Vector, JIT) accept FaultSim, and
	// it needs Lanes >= 2.
	FaultSim       bool
	FaultMaxPasses int
	FaultStatuses  bool
	// Lint selects the pre-flight static analysis applied before any
	// algorithm runs: LintOff (default), LintWarn (refuse circuits with
	// Error diagnostics such as zero-delay combinational cycles), or
	// LintStrict (additionally refuse Warning diagnostics). See Analyze
	// for the full diagnostic catalogue.
	Lint LintMode
	// Watchdog enables the runtime stall watchdog: a run whose progress
	// stays flat for this long is aborted with ErrStalled and a
	// per-worker diagnostic dump instead of hanging. 0 disables it.
	Watchdog time.Duration
	// Fallback transparently retries a run on the Sequential reference
	// engine when the selected algorithm panics or stalls. The retried
	// Result carries Degraded=true and the original error (wrapped in a
	// fallback error recording the attempt count) in Fault.
	Fallback bool
	// FallbackRetries is the number of fallback attempts (0 defaults to
	// 1); FallbackDelay is the base of the capped exponential backoff
	// applied between attempts (0 retries immediately).
	FallbackRetries int
	FallbackDelay   time.Duration
	// Checkpoint names a snapshot file the run rewrites atomically every
	// CheckpointEvery time steps (0 defaults to 256), at the quiescent
	// per-step barrier. Only the synchronous algorithms (Sequential,
	// Compiled, Vector — including FaultSim — and JIT) support
	// checkpointing.
	Checkpoint      string
	CheckpointEvery int64
	// ResumeFrom names a snapshot to continue from instead of starting at
	// t=0. The snapshot must match this run's netlist, algorithm and
	// options (verified by content digest); the resumed run's final
	// states, lane finals and probe history are bit-identical to an
	// uninterrupted run's. Result.Resumed reports that the path was taken.
	ResumeFrom string
	// Chaos injects faults (induced panics, delays, dropped wakeups)
	// into the run, for testing the supervision layer. Leave nil in
	// production.
	Chaos *ChaosProbe
}

// Result is the outcome of a simulation.
type Result struct {
	Stats RunStats
	// Final holds each node's value at the horizon, indexed by NodeID.
	// For a Vector or JIT run this is lane ProbeLane's view.
	Final []Value
	// LaneFinal holds every lane's final node values (Vector and JIT
	// only): LaneFinal[k][n] is node n at the horizon as lane k saw it.
	LaneFinal [][]Value
	// FaultCoverage reports concurrent fault-simulation results
	// (Vector or JIT with Options.FaultSim only).
	FaultCoverage *FaultCoverage
	// Messages counts inter-worker messages (DistAsync only).
	Messages int64
	// Rollbacks, Cancelled and PeakLog quantify optimistic execution
	// (TimeWarp only): rollback episodes, anti-message annihilations, and
	// the peak saved-state footprint.
	Rollbacks int64
	Cancelled int64
	PeakLog   int64
	// Rounds counts Chandy-Misra deadlock recoveries (ChandyMisra only).
	Rounds int64
	// Degraded marks a result produced by the sequential fallback after
	// the requested algorithm faulted or stalled (Options.Fallback);
	// Fault holds the original algorithm's error.
	Degraded bool
	Fault    error
	// Resumed marks a run continued from an Options.ResumeFrom snapshot
	// rather than simulated from t=0.
	Resumed bool
	// Selected records an engine=auto run's decision: the winning engine
	// and configuration, the per-engine ranking, and the static circuit
	// profile that justified it. Nil for directly selected algorithms.
	Selected *Selection
}

// Auto-selection surface, re-exported from the implementation packages.
type (
	// Selection is the decision record of an engine=auto run.
	Selection = engine.Selection
	// SelectionChoice is one ranked entry inside a Selection.
	SelectionChoice = engine.Choice
	// CircuitProfile is the static structural fingerprint computed by
	// Profile and embedded in every Selection.
	CircuitProfile = analyze.CircuitProfile
)

// Profile computes a circuit's static structural fingerprint — levelized
// depth and widths, fanout histogram, sequential/combinational mix,
// activity estimate, feedback census, partition cut quality — without
// running any simulation. This is the evidence engine=auto selects on.
func Profile(c *Circuit) *CircuitProfile { return analyze.Profile(c) }

// Simulate runs the selected algorithm over [0, Horizon). All algorithms
// produce identical node histories (Compiled on unit-delay circuits); they
// differ in how the work is executed.
//
// A *Circuit must not be shared between concurrent Simulate (or
// SimulateContext) calls: the engines treat the circuit as their private
// working set for the duration of a run, and nothing in the API guarantees
// two runs touching one circuit do not race. To run the same netlist many
// times in parallel — as the parsimd daemon does — clone it per run with
// Circuit.Clone, which deep-copies everything mutable while sharing the
// immutable element-kind registry. TestConcurrentSimulateOnClones pins
// this contract under the race detector.
func Simulate(c *Circuit, opts Options) (*Result, error) {
	return SimulateContext(context.Background(), c, opts)
}

// SimulateContext is Simulate with cancellation: when ctx is cancelled (or
// its deadline passes) every worker of the selected algorithm stops within
// one scheduling quantum — a time step, a GVT round, or a queue poll — and
// the partial Result accumulated so far is returned together with
// ctx.Err().
//
// Dispatch goes through the engine registry: Options.Engine is the
// registry key, so this function, the CLIs, the figure harness and the
// benchmarks all resolve algorithms through one table.
func SimulateContext(ctx context.Context, c *Circuit, opts Options) (*Result, error) {
	var fallback *engine.FallbackPolicy
	if opts.Fallback {
		fallback = &engine.FallbackPolicy{
			MaxRetries: opts.FallbackRetries,
			BaseDelay:  opts.FallbackDelay,
		}
	}
	name := opts.Engine
	if name == "" {
		name = Sequential
	}
	rep, err := engine.Run(ctx, name, c, engine.Config{
		Workers:        opts.Workers,
		Horizon:        opts.Horizon,
		Probe:          opts.Probe,
		CostSpin:       opts.CostSpin,
		Strategy:       opts.Strategy,
		NoSteal:        opts.NoSteal,
		CentralQueue:   opts.CentralQueue,
		NoLookahead:    opts.NoLookahead,
		GateLookahead:  opts.GateLookahead,
		Lint:           opts.Lint,
		Watchdog:       opts.Watchdog,
		Fallback:       fallback,
		Chaos:          opts.Chaos,
		Lanes:          opts.Lanes,
		LaneStride:     opts.LaneStride,
		ProbeLane:      opts.ProbeLane,
		FaultSim:       opts.FaultSim,
		FaultMaxPasses: opts.FaultMaxPasses,
		FaultStatuses:  opts.FaultStatuses,
		Checkpoint: engine.CheckpointSpec{
			Path:       opts.Checkpoint,
			EverySteps: opts.CheckpointEvery,
		},
		ResumeFrom: opts.ResumeFrom,
	})
	return ResultOf(rep), err
}

// IsUnitDelay reports whether every element has delay 1, the precondition
// for Compiled to agree with the other algorithms.
func IsUnitDelay(c *Circuit) bool { return c.UnitDelay() }

// Runtime-supervision surface, re-exported from internal/guard. A run
// supervised with Options.Watchdog ends in a *StallError (matching
// ErrStalled via errors.Is) when its progress flattens; a worker panic
// surfaces as a *WorkerFault instead of crashing the process.
type (
	// WorkerFault is a contained worker panic: which engine, which
	// worker, what it panicked with, and the goroutine stack.
	WorkerFault = guard.WorkerFault
	// StallError is a watchdog abort or deadlock self-report, carrying
	// the last progress value, any stuck nodes, and a per-worker
	// counter dump.
	StallError = guard.StallError
	// ChaosProbe injects faults for supervision tests (Options.Chaos).
	ChaosProbe = guard.ChaosProbe
)

// ErrStalled is the sentinel matched by errors.Is for every stall abort.
var ErrStalled = guard.ErrStalled

// IsRecoverable reports whether err is a fault the Fallback policy
// retries: a stall or a contained worker panic, but not a user
// cancellation or a configuration error.
func IsRecoverable(err error) bool { return guard.Recoverable(err) }

// Static-analysis surface, re-exported from internal/analyze.
type (
	// LintMode selects the pre-flight analysis level in Options.Lint.
	LintMode = engine.LintMode
	// AnalyzeReport is the structured outcome of Analyze: typed
	// diagnostics, levelization, and an optional partition-quality
	// summary.
	AnalyzeReport = analyze.Report
	// AnalyzeOptions configures Analyze.
	AnalyzeOptions = analyze.Options
	// Diag is one typed diagnostic inside an AnalyzeReport.
	Diag = analyze.Diag
)

// Pre-flight lint levels for Options.Lint.
const (
	LintOff    = engine.LintOff
	LintWarn   = engine.LintWarn
	LintStrict = engine.LintStrict
)

// Analyze statically checks a circuit: zero-delay combinational cycles
// (the livelock hazard the asynchronous algorithms cannot survive),
// floating inputs, drive conflicts, stimulus-free regions, combinational
// levelization and — when AnalyzeOptions.Workers > 0 — partition quality
// under the chosen strategy. Simulate enforces the same checks when
// Options.Lint is LintWarn or LintStrict.
func Analyze(c *Circuit, opts AnalyzeOptions) *AnalyzeReport {
	return analyze.Analyze(c, opts)
}

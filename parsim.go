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
//     element evaluated every step from a static partition, one barrier
//     per step;
//   - Async: the paper's primary contribution, a totally asynchronous
//     algorithm with no locks and no barriers: per-node event histories
//     with incrementally advancing valid-times (so the Chandy-Misra
//     deadlock never forms and no Time-Warp rollback is needed), lock-free
//     single-reader/single-writer work queues, and asynchronous reclamation
//     of consumed events;
//
// plus the Sequential reference simulator every parallel run is
// cross-checked against. Compiled, Vector and JIT are one engine: the
// levelized plane core, the Compiled algorithm run through a static
// compiler over N bit-parallel stimulus lanes (Vector defaults to 64
// lanes, JIT to 1), which also carries concurrent stuck-at fault
// simulation. Compiled runs it as a scalar engine, one lane and every
// element every step; Vector and JIT skip the blocks no change reached.
//
// Circuits mix representation levels: two-input gates, RTL registers and
// muxes, and functional blocks (wide adders, multipliers, ALUs, memories)
// connected by four-state (0/1/X/Z) nodes up to 64 bits wide. Build them
// with a Builder, load them from netlist files, or generate the paper's
// benchmark circuits from the Bench* helpers.
//
// Every algorithm returns the same Result, the engine layer's one run
// report: run statistics with per-worker counters (Stats.Totals sums the
// messages, rollbacks and cancellations), the final node values, and the
// few figures only one algorithm produces (PeakLog, Rounds, GVTRounds).
// Its JSON encoding is the report `parsim -json` prints and the parsimd
// daemon serves as a job result.
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
	// Simulate dispatches through (auto brings the five engines it picks).
	_ "parsim/internal/auto"
	_ "parsim/internal/dist"
	_ "parsim/internal/timewarp"
)

// Core value and netlist types, re-exported from the implementation
// packages so user code needs only this import.
type (
	// Value is a four-state bus value up to 64 bits wide.
	Value = logic.Value
	// State is a single wire state: L, H, X or Z.
	State = logic.State
	// LaneValues is a batched run's per-lane final node values
	// (Result.LaneFinal), packed two bits per node bit per lane.
	LaneValues = logic.LaneValues
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
	// Strategy selects the static partitioner of the distributed and Time
	// Warp engines.
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

// Partition strategies for the distributed and Time Warp engines.
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
	// Compiled is the parallel unit-delay compiled-mode algorithm: every
	// element evaluated at every step, one barrier per step. It runs on the
	// plane core (see JIT) at one lane with the selective trace off, and
	// as a scalar engine takes no lane fields and no fault simulation. It
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
	// and anti-message cancellation. The rollbacks in Result.Stats.Totals
	// and Result.PeakLog quantify the paper's two criticisms.
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
	// barrier per step (Options.Strategy is not consulted, under any of
	// its names). Semantically it is the Compiled algorithm (unit-delay)
	// with a selective trace that skips the blocks no change reached;
	// Compiled is the same core with the trace off. Options.Lanes and
	// Options.FaultSim apply exactly as for Vector.
	JIT Algorithm = "jit"
)

// Algorithms returns the canonical names of every registered engine,
// sorted — the same table ParseAlgorithm, the CLIs and the parsimd daemon
// resolve names against.
func Algorithms() []string { return engine.Names() }

// ParseAlgorithm resolves an engine name or alias (case-insensitive,
// e.g. "async", "tw", "event-driven") to the Algorithm carrying its
// canonical name, through the same registry every other dispatch path uses.
func ParseAlgorithm(name string) (Algorithm, error) {
	e, err := engine.Get(name)
	if err != nil {
		return Sequential, err
	}
	return e.Name(), nil
}

// Options configures Simulate. It is the engine layer's one run
// configuration, which every engine reads: Engine names the algorithm
// ("" is Sequential), Horizon is required, and every other field's zero
// value is its default. The parsimd daemon maps its wire submission onto
// the same struct.
type Options = engine.Config

// CheckpointSpec asks a run for periodic crash-durable snapshots
// (Options.Checkpoint): Path is rewritten atomically every EverySteps time
// steps (0 defaults to 256) at the quiescent per-step barrier.
type CheckpointSpec = engine.CheckpointSpec

// Result is the outcome of a simulation: the engine layer's one run
// report, which every engine returns and the parsimd daemon serves. Its
// MarshalJSON/UnmarshalJSON are the run-report schema `parsim -json`
// prints. Per-worker counters (messages, rollbacks, cancellations) sum
// with Stats.Totals.
type Result = engine.Report

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
	return engine.Run(ctx, c, opts)
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

// IsRecoverable reports whether err is a fault Options.Fallback re-runs:
// a stall or a contained worker panic, but not a user cancellation or a
// configuration error.
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

package machine

import (
	"math"
	"sort"

	"parsim/internal/analyze"
	"parsim/internal/circuit"
	"parsim/internal/engine"
)

// This file extends the virtual-machine cost model from replaying traces
// (EventDriven/Compiled/Async over a sequential run) to predicting runtime
// from a static analyze.CircuitProfile alone: no simulation, no traces.
// The predictions drive engine=auto — given a profile and a worker budget,
// Predict ranks the best configuration of every engine auto can pick by
// estimated per-tick cost. The T5 baselines (chandy-misra, time-warp,
// distributed-async) are not modelled: they exist to be measured against,
// never to be picked. A span prices the whole facade call per tick, the
// plane core's lowering included, in units of about 14 ns on the 2-core
// reference host; only the ordering and the relative gaps matter. The knobs
// below are calibrated on one-worker facade walls of the paper circuits
// (bench/'s auto.regret_ratio tracks how far the picks are from the best
// fixed engine).

// PredictOptions parameterises a prediction.
type PredictOptions struct {
	// MaxWorkers is the worker budget; each engine is swept over
	// 1,2,4,... up to this cap and ranked at its best count.
	MaxWorkers int
	// Lanes > 1 marks a batched job (only the plane core, predicted under
	// its jit name, applies).
	Lanes int
	// Horizon is the job's length in ticks, over which the plane core's
	// one-off lowering is spread (below one counts as one).
	Horizon circuit.Time
	// CostSpin mirrors Config.CostSpin: synthetic per-evaluation work that
	// shifts the balance from dispatch overhead to evaluation cost.
	CostSpin int64
	// Cost supplies the shared machine parameters (barriers, contention).
	Cost CostModel
}

// Model knobs specific to static prediction, separate from CostModel so the
// trace-replay models keep their paper calibration. Values are tuned so the
// ranking reproduces the measured ordering on the paper circuits.
const (
	// Per-evaluation dispatch overhead, in cost units, for the dynamically
	// scheduled engines: heap pops, valid-time checks, activation queues.
	// Measured one-worker walls put the asynchronous engine's cost per
	// event above event-driven's: 1.14x on the inverter array, where
	// nothing contends.
	edOverhead    = 6.0
	asyncOverhead = 7.0
	// Compiled-mode per-element dispatch: a jump through a precompiled
	// schedule over logic.Value slots, about 66 ns per element-step on the
	// inverter array against event-driven's ~100 ns per evaluation.
	compiledOverhead = 4.0
	// jitOverhead is the plane core's residual per-element cost inside a
	// block it runs: fused gate batches run with no per-element call at
	// all, so what remains is amortised loop bookkeeping and the occasional
	// devirtualized kernel (about 18 ns per element evaluation on the
	// inverter array).
	jitOverhead = 0.35
	// lowerCost is the plane core's lowering per element, paid once per
	// run before the first step and outside Stats.Wall: 0.7-1.0 us per
	// element on mult16-gate and the inverter array, about half of a
	// mult16-gate jit call.
	lowerCost = 60.0
	// spinDiv converts Config.CostSpin into extra cost units per unit of
	// element cost (CostSpin=300 roughly triples a cost-1 gate evaluation
	// relative to its dispatch).
	spinDiv = 100.0
	// contentionBeta scales the asynchronous engine's fanout penalty: a
	// change on a wide node reaches every consumer's input history and
	// threshold, so the work dilates with ln(edge-weighted mean fanout).
	// Beyond asyncOverhead, the one-worker async/event-driven wall ratio
	// reads 1.04 on the gate-level multiplier (edge fanout 3.7) and 5.6 on
	// the microprocessor (51.9), whose excess is wasted activations more
	// than fanout; 0.6 sits between the two fits (0.03 and 1.2).
	contentionBeta = 0.6
)

// Predict ranks the best configuration of every engine auto can pick for
// the profiled circuit under the given budget: eligible engines first,
// ordered by predicted span (Choice.Span, abstract units per tick). The
// slice always holds five entries — sequential, event-driven, compiled,
// asynchronous and the plane core once, under its jit name — and
// sequential is always eligible.
func Predict(p *analyze.CircuitProfile, opts PredictOptions) []engine.Choice {
	if opts.MaxWorkers < 1 {
		opts.MaxWorkers = 1
	}
	zero := CostModel{}
	if opts.Cost == zero {
		opts.Cost = DefaultCostModel()
	}
	m := &predictor{p: p, opts: opts}
	preds := []engine.Choice{m.sequential(), m.eventDriven(), m.compiled(), m.jit(), m.async()}
	sort.SliceStable(preds, func(i, j int) bool {
		a, b := preds[i], preds[j]
		if a.Eligible != b.Eligible {
			return a.Eligible
		}
		if a.Span != b.Span {
			return a.Span < b.Span
		}
		return a.Engine < b.Engine
	})
	return preds
}

// Confidence scores a ranking: the relative span gap between the two best
// eligible predictions, in [0, 1]. One eligible engine scores 1.
func Confidence(preds []engine.Choice) float64 {
	var spans []float64
	for _, pr := range preds {
		if pr.Eligible {
			spans = append(spans, pr.Span)
		}
	}
	if len(spans) < 2 || spans[1] <= 0 {
		return 1
	}
	c := 1 - spans[0]/spans[1]
	if c < 0 {
		return 0
	}
	return c
}

type predictor struct {
	p    *analyze.CircuitProfile
	opts PredictOptions
}

// workerSweep returns 1, 2, 4, ... capped at the budget, budget included.
func (m *predictor) workerSweep() []int {
	var ps []int
	for p := 1; p < m.opts.MaxWorkers; p *= 2 {
		ps = append(ps, p)
	}
	return append(ps, m.opts.MaxWorkers)
}

// spin is the evaluation-cost multiplier from Config.CostSpin.
func (m *predictor) spin() float64 { return 1 + float64(m.opts.CostSpin)/spinDiv }

// dynWork is the per-tick evaluation work of a dynamically scheduled engine
// with the given dispatch overhead: activity-weighted cost plus per-event
// scheduling.
func (m *predictor) dynWork(overhead float64) float64 {
	return m.p.EvalsPerTick*overhead + m.p.EvalCostPerTick*m.spin()
}

// bestStrategy picks the partition strategy with the lowest imbalance at
// the given worker count (ties to the lower cut fraction, then name order).
func (m *predictor) bestStrategy(workers int) analyze.CutQuality {
	best := analyze.CutQuality{Imbalance: math.MaxFloat64}
	for _, s := range []string{"blocks", "cost-lpt", "round-robin"} {
		cq := m.p.CutAt(s, workers)
		cq.Strategy = s
		if cq.Imbalance < best.Imbalance ||
			(cq.Imbalance == best.Imbalance && cq.CutFraction < best.CutFraction) {
			best = cq
		}
	}
	return best
}

func (m *predictor) sequential() engine.Choice {
	// One worker and one global heap. Measured one-worker walls have
	// event-driven at or slightly below sequential everywhere, so the
	// reference engine carries a small dispatch surcharge.
	return engine.Choice{Engine: "sequential", Workers: 1, Span: m.dynWork(edOverhead + 0.5), Eligible: true}
}

// sweep ranks name at its best worker count: the lowest span(p) over the
// sweep, with the partition strategy span names for it.
func (m *predictor) sweep(name string, span func(p int) (float64, string)) engine.Choice {
	best := engine.Choice{Engine: name, Eligible: true, Span: math.MaxFloat64}
	for _, p := range m.workerSweep() {
		if s, strategy := span(p); s < best.Span {
			best.Span, best.Workers, best.Strategy = s, p, strategy
		}
	}
	return best
}

// barrier is one barrier crossing at p workers (none at one).
func (m *predictor) barrier(p int) float64 {
	if p == 1 {
		return 0
	}
	return m.opts.Cost.BarrierBase + m.opts.Cost.BarrierPerP*float64(p)
}

// rankOrder gates a rank-order engine on unit delays.
func (m *predictor) rankOrder(ch engine.Choice) engine.Choice {
	if !m.p.UnitDelay {
		ch.Eligible = false
		ch.Reason = "non-unit delays: compiled-mode rank-order results diverge from event timing"
	}
	return ch
}

func (m *predictor) eventDriven() engine.Choice {
	work := m.dynWork(edOverhead)
	// Barriers close every active tick; idle ticks are skipped cheaply.
	active := math.Min(1, m.p.EvalsPerTick)
	return m.sweep("event-driven", func(p int) (float64, string) {
		return m.opts.Cost.dilation(p)*work/float64(p) + 2*m.barrier(p)*active, ""
	})
}

func (m *predictor) compiled() engine.Choice {
	// Every element evaluates every tick, active or not.
	n := float64(m.p.Elements - m.p.Generators)
	work := n*compiledOverhead + float64(m.p.TotalCost)*m.spin()
	return m.rankOrder(m.sweep("compiled", func(p int) (float64, string) {
		cq := m.bestStrategy(p)
		return m.opts.Cost.dilation(p)*work/float64(p)*cq.Imbalance + m.barrier(p), cq.Strategy
	}))
}

// jit models the levelized plane core (registered as both jit and vector;
// one core, so one prediction). Its selective trace runs only the blocks a
// change reaches, each whole, so its work follows the profile's block
// activity; it crosses one barrier per tick when parallel; and its
// lowering, paid once on one goroutine, is spread over the horizon. Its
// compiler balances the split itself, so no partition strategy applies. A
// batched job amortises the whole job over every lane, and no other engine
// produces LaneFinal at all.
func (m *predictor) jit() engine.Choice {
	meanCost := 0.0
	if n := m.p.Elements - m.p.Generators; n > 0 {
		meanCost = float64(m.p.TotalCost) / float64(n)
	}
	work := m.p.BlockEvalsPerTick * (jitOverhead + meanCost*m.spin())
	lower := float64(m.p.Elements) * lowerCost / float64(max(1, m.opts.Horizon))
	best := m.sweep("jit", func(p int) (float64, string) {
		return m.opts.Cost.dilation(p)*work/float64(p) + m.barrier(p) + lower, ""
	})
	best.Lanes = max(1, m.opts.Lanes)
	best.Span /= float64(best.Lanes)
	return m.rankOrder(best)
}

// async models the paper's asynchronous algorithm: no barriers, work
// split across workers, but serialised by the hottest element and by
// feedback loops (paper §4.1: a loop degenerates to one event at a time).
func (m *predictor) async() engine.Choice {
	contention := 1 + contentionBeta*math.Log(math.Max(1, m.p.EdgeFanout))
	work := m.dynWork(asyncOverhead) * contention
	serial := math.Max(m.p.MaxRateCost*m.spin()+asyncOverhead, m.p.LoopSerialCost*m.spin())
	return m.sweep("asynchronous", func(p int) (float64, string) {
		span := m.opts.Cost.dilation(p) * work / float64(p)
		if p > 1 {
			span += m.opts.Cost.LockCost * m.p.EvalsPerTick / float64(p)
		}
		return math.Max(span, serial), ""
	})
}

// Package auto registers the "auto" engine: cost-model-driven engine
// selection. It never simulates anything itself — Run computes the static
// circuit profile (analyze.Profile), ranks the five engines it can pick
// (sequential, event-driven, compiled, asynchronous and the plane core as
// jit) through the extended machine cost model (machine.Predict), and
// hands the run to the predicted winner at the predicted worker count,
// partition strategy and lane width. The decision is recorded on
// Report.Selected so the facade, the CLIs and parsimd can all surface it.
//
// The model prices what the whole call costs: event-driven and the
// asynchronous engine by the profile's activity, the plane core by its
// block activity plus its lowering, which Config.Horizon amortises — so a
// long job on an active unit-delay circuit goes to jit and a short one
// does not. At one worker, event-driven takes the sparse circuits: it
// costs less per event than the asynchronous engine.
//
// Config.Workers acts as a budget: the winner may run fewer workers than
// the budget (a feedback-dominated circuit is fastest on one worker), never
// more (a budget below one counts as one, as in RunEngine). Config.Lanes
// > 1 forces the levelized plane core under its jit name: it is the only
// engine that carries lanes and produces LaneFinal (vector names the same
// core), and a forced winner keeps batched selection deterministic.
// Fault simulation never reaches this package: RunEngine rejects
// Config.FaultSim for any engine that is not an engine.LaneEngine.
package auto

import (
	"context"
	"slices"

	"parsim/internal/analyze"
	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/machine"
	"parsim/internal/partition"
)

type eng struct{}

// Name returns the registry name.
func (eng) Name() string { return "auto" }

func init() { engine.Register(eng{}, "select") }

// Run profiles the circuit, picks the winner and delegates. The outer
// RunEngine call has already validated the config, linted the circuit and
// attached the supervisor (cfg.Guard), which the inner engine inherits —
// its stall signal is aggregate, so a winner running fewer workers than
// the budget still keeps the watchdog fed.
func (eng) Run(ctx context.Context, c *circuit.Circuit, cfg engine.Config) (*engine.Report, error) {
	sel, icfg := Choose(c, cfg)
	inner, err := engine.Get(sel.Engine)
	if err != nil {
		return nil, err
	}
	rep, err := inner.Run(ctx, c, icfg)
	if rep != nil {
		rep.Selected = sel
	}
	return rep, err
}

// Choose computes the selection for c under cfg and returns it together
// with the config the winning engine should run with. Exported for the
// profile tooling and tests; Run is the production path.
func Choose(c *circuit.Circuit, cfg engine.Config) (*engine.Selection, engine.Config) {
	prof := analyze.Profile(c)
	ranking := machine.Predict(prof, machine.PredictOptions{
		MaxWorkers: cfg.Workers,
		Lanes:      cfg.Lanes,
		Horizon:    cfg.Horizon,
		CostSpin:   cfg.CostSpin,
	})
	sel := &engine.Selection{
		Confidence: machine.Confidence(ranking),
		Ranking:    ranking,
		Profile:    prof,
	}
	// Eligible entries rank first, and sequential is always eligible.
	win := &sel.Ranking[0]
	if cfg.Lanes > 1 {
		// Batched job: only the plane core carries lanes.
		win = &sel.Ranking[slices.IndexFunc(sel.Ranking, func(ch engine.Choice) bool { return ch.Engine == "jit" })]
		win.Eligible = true
		win.Reason = "forced: Lanes > 1 needs a lane engine, and the plane core (jit; vector names the same core) is the only one"
		sel.Confidence = 1
	}
	sel.Engine, sel.Workers, sel.Strategy, sel.Lanes = win.Engine, win.Workers, win.Strategy, win.Lanes

	icfg := cfg
	icfg.Workers = win.Workers
	if win.Strategy != "" {
		if s, err := partition.ParseStrategy(win.Strategy); err == nil {
			icfg.Strategy = s
		}
	}
	return sel, icfg
}

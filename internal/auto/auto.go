// Package auto registers the "auto" engine: cost-model-driven engine
// selection. It never simulates anything itself — Run computes the static
// circuit profile (analyze.Profile), ranks every registered engine through
// the extended machine cost model (machine.Predict), and hands the run to
// the predicted winner at the predicted worker count, partition strategy
// and lane width. The decision is recorded on Report.Selected so the
// facade, the CLIs and parsimd can all surface it.
//
// Config.Workers acts as a budget: the winner may run fewer workers than
// the budget (a feedback-dominated circuit is fastest on one worker), never
// more. Config.Lanes > 1 forces the levelized plane core under its jit
// name: it is the only engine that carries lanes and produces LaneFinal
// (vector names the same core), and a forced winner keeps batched selection
// deterministic.
// Fault simulation never reaches this package: RunEngine rejects
// Config.FaultSim for any engine that is not an engine.LaneEngine.
package auto

import (
	"context"

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
	preds := machine.Predict(prof, machine.PredictOptions{
		MaxWorkers: cfg.Workers,
		Lanes:      cfg.Lanes,
		CostSpin:   cfg.CostSpin,
	})

	sel := &engine.Selection{
		Confidence: machine.Confidence(preds),
		Ranking:    make([]engine.Choice, 0, len(preds)),
		Profile:    prof,
	}
	var win *engine.Choice
	for _, pr := range preds {
		ch := engine.Choice{
			Engine:   pr.Engine,
			Workers:  pr.Workers,
			Strategy: pr.Strategy,
			Lanes:    pr.Lanes,
			Span:     pr.Span,
			Eligible: pr.Eligible,
			Reason:   pr.Reason,
		}
		if _, err := engine.Get(ch.Engine); err != nil {
			ch.Eligible = false
			ch.Reason = "engine not registered"
		}
		sel.Ranking = append(sel.Ranking, ch)
	}
	if cfg.Lanes > 1 {
		// Batched job: only the plane core carries lanes.
		for i := range sel.Ranking {
			if sel.Ranking[i].Engine == "jit" {
				win = &sel.Ranking[i]
				win.Eligible = true
				win.Reason = "forced: Lanes > 1 needs a lane engine, and the plane core (jit; vector names the same core) is the only one"
				break
			}
		}
		sel.Confidence = 1
	}
	if win == nil {
		for i := range sel.Ranking {
			if sel.Ranking[i].Eligible {
				win = &sel.Ranking[i]
				break
			}
		}
	}
	if win == nil {
		// Nothing eligible (cannot happen with the stock registry, but a
		// stripped build deserves a sane answer): fall back to sequential.
		sel.Ranking = append(sel.Ranking, engine.Choice{
			Engine: "sequential", Workers: 1, Eligible: true,
			Reason: "fallback: no eligible prediction",
		})
		win = &sel.Ranking[len(sel.Ranking)-1]
	}

	sel.Engine = win.Engine
	sel.Workers = win.Workers
	sel.Strategy = win.Strategy
	sel.Lanes = win.Lanes

	icfg := cfg
	icfg.Workers = win.Workers
	if icfg.Workers < 1 || icfg.Workers > cfg.Workers {
		icfg.Workers = cfg.Workers
	}
	if win.Engine == "sequential" {
		icfg.Workers = 1
	}
	if win.Strategy != "" {
		if s, err := partition.ParseStrategy(win.Strategy); err == nil {
			icfg.Strategy = s
		}
	}
	sel.Workers = icfg.Workers
	return sel, icfg
}

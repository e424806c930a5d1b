package compiled

import (
	"context"

	"parsim/internal/circuit"
	"parsim/internal/engine"
)

// eng adapts the compiled-mode simulator to the unified engine layer.
type eng struct{}

func (eng) Name() string { return "compiled" }

// Checkpoints makes eng an engine.Checkpointer.
func (eng) Checkpoints() {}

func (eng) Run(ctx context.Context, c *circuit.Circuit, cfg engine.Config) (*engine.Report, error) {
	res, err := RunContext(ctx, c, Options{
		Workers:    cfg.Workers,
		Horizon:    cfg.Horizon,
		Probe:      cfg.Probe,
		CostSpin:   cfg.CostSpin,
		Strategy:   cfg.Strategy,
		Guard:      cfg.Guard,
		Checkpoint: cfg.Ckpt,
	})
	if res == nil {
		return nil, err
	}
	return &engine.Report{Run: res.Run, Final: res.Final}, err
}

func init() { engine.Register(eng{}, "compiled-mode") }

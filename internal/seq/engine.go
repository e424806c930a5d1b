package seq

import (
	"context"
	"fmt"

	"parsim/internal/circuit"
	"parsim/internal/engine"
)

// eng adapts the sequential simulator to the unified engine layer.
type eng struct{}

func (eng) Name() string { return "sequential" }

// Checkpoints makes eng an engine.Checkpointer.
func (eng) Checkpoints() {}

func (eng) Run(ctx context.Context, c *circuit.Circuit, cfg engine.Config) (*engine.Report, error) {
	if cfg.Workers > 1 {
		return nil, fmt.Errorf("parsim: the sequential algorithm is single-worker (got %d workers)", cfg.Workers)
	}
	res, err := RunContext(ctx, c, Options{
		Horizon:      cfg.Horizon,
		Probe:        cfg.Probe,
		CostSpin:     cfg.CostSpin,
		CollectAvail: cfg.CollectAvail,
		Guard:        cfg.Guard,
		Checkpoint:   cfg.Ckpt,
	})
	if res == nil {
		return nil, err
	}
	return &engine.Report{Run: res.Run, Final: res.Final}, err
}

func init() { engine.Register(eng{}, "seq") }

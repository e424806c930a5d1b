package codegen

import (
	"context"

	"parsim/internal/circuit"
	"parsim/internal/engine"
)

type eng struct{}

func (eng) Name() string { return "jit" }

func (eng) Run(ctx context.Context, c *circuit.Circuit, cfg engine.Config) (*engine.Report, error) {
	opts := Options{
		Workers:    cfg.Workers,
		Horizon:    cfg.Horizon,
		Probe:      cfg.Probe,
		CostSpin:   cfg.CostSpin,
		Guard:      cfg.Guard,
		Lanes:      cfg.Lanes,
		LaneStride: cfg.LaneStride,
		ProbeLane:  cfg.ProbeLane,
		Checkpoint: cfg.CkptPlan,
		Resume:     cfg.CkptSnap,
	}
	res, err := RunContext(ctx, c, opts)
	if res == nil {
		return nil, err
	}
	return &engine.Report{
		Run: res.Run, Final: res.Final, LaneFinal: res.LaneFinal,
	}, err
}

func init() {
	engine.Register(eng{}, "codegen")
}

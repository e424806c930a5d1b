package vector

import (
	"context"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/logic"
)

// eng is the core's registry adapter. The two registered values differ only
// in name and in the lane count a run gets when Config.Lanes is 0: "vector"
// is first a batched engine (one full plane word), "jit" first a scalar
// replacement for the compiled engine that widens on request.
type eng struct {
	name  string
	lanes int
}

func (e eng) Name() string { return e.name }

// DefaultLanes makes eng an engine.LaneEngine.
func (e eng) DefaultLanes() int { return e.lanes }

// Checkpoints makes eng an engine.Checkpointer.
func (eng) Checkpoints() {}

func (e eng) Run(ctx context.Context, c *circuit.Circuit, cfg engine.Config) (*engine.Report, error) {
	opts := Options{
		Name:       e.name,
		Workers:    cfg.Workers,
		Horizon:    cfg.Horizon,
		Probe:      cfg.Probe,
		CostSpin:   cfg.CostSpin,
		Guard:      cfg.Guard,
		Lanes:      cfg.Lanes,
		LaneStride: cfg.LaneStride,
		ProbeLane:  cfg.ProbeLane,
		Checkpoint: cfg.Ckpt,
	}
	if opts.Lanes == 0 {
		opts.Lanes = e.lanes
	}
	if cfg.FaultSim {
		opts.FaultSim = &FaultOptions{
			MaxPasses:    cfg.FaultMaxPasses,
			KeepStatuses: cfg.FaultStatuses,
		}
	}
	res, err := RunContext(ctx, c, opts)
	if res == nil {
		return nil, err
	}
	return &engine.Report{
		Run: res.Run, Final: res.Final, LaneFinal: res.LaneFinal,
		FaultCoverage: res.FaultCoverage,
	}, err
}

func init() {
	engine.Register(eng{name: "vector", lanes: logic.MaxLanes}, "batched", "bit-parallel")
	engine.Register(eng{name: "jit", lanes: 1}, "codegen")
}

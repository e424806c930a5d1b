package harness

import (
	"context"
	"fmt"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/gen"
	"parsim/internal/machine"
	"parsim/internal/seq"
)

// utilAt reads a speed-up series at processor count p and converts to the
// paper's utilisation measure, speed-up divided by processors.
func utilAt(s Series, p int) float64 {
	for i, x := range s.X {
		if int(x) == p {
			return s.Y[i] / float64(p)
		}
	}
	return 0
}

// fig1 — "Event-driven Simulation Results": speed-up versus processors for
// the four benchmark circuits. Paper: 6-9x with 15 processors on the gate
// multiplier, with a dip above 8 processors from cache sharing.
func fig1(cfg Config) *Figure {
	f := &Figure{
		ID:     "fig1",
		Title:  "Event-driven speed-up vs processors (" + cfg.Mode.String() + " mode)",
		XLabel: "P",
		YLabel: "speed-up",
	}
	ps := procSweep(cfg.MaxP)
	for _, name := range []string{"mult16-gate", "mult16-func", "inverter-array", "microprocessor"} {
		b := cfg.benches()[name]
		c := b.build()
		var run func(int) (float64, float64)
		if cfg.Mode == Model {
			steps, _ := seq.Collect(c, b.horizon)
			run = cfg.modelEventDriven(c, steps, machine.EDDistributed)
		} else {
			run = cfg.realEngine("event-driven", c, b.horizon, nil)
		}
		f.Series = append(f.Series, speedupSeries(name, ps, run))
	}
	f.Notes = append(f.Notes,
		"paper: gate multiplier reaches 6-9x at 15 processors; utilisation limited by",
		"available events per step and the end-of-step synchronisation",
		"paper fig-1 dip above 8 processors: two processors per Encore cache card")
	return f
}

// fig2 — "Event per Time-Step Results": event-driven speed-up on the
// inverter array with the stimulus rate controlling events per tick
// (512/256/128/64).
func fig2(cfg Config) *Figure {
	f := &Figure{
		ID:     "fig2",
		Title:  "Event-driven speed-up vs events per time step, inverter array (" + cfg.Mode.String() + " mode)",
		XLabel: "P",
		YLabel: "speed-up",
	}
	horizon := circuit.Time(192)
	if cfg.Quick {
		horizon = 96
	}
	ps := procSweep(cfg.MaxP)
	for _, active := range []int{32, 16, 8, 4} {
		acfg := gen.DefaultInverterArray()
		acfg.ActiveRows = active
		c := gen.InverterArray(acfg)
		var run func(int) (float64, float64)
		if cfg.Mode == Model {
			steps, _ := seq.Collect(c, horizon)
			run = cfg.modelEventDriven(c, steps, machine.EDDistributed)
		} else {
			run = cfg.realEngine("event-driven", c, horizon, nil)
		}
		f.Series = append(f.Series, speedupSeries(fmt.Sprintf("%d ev/tick", active*16), ps, run))
	}
	f.Notes = append(f.Notes,
		"paper: to use more than 16 processors efficiently, ~1000 events must be",
		"available in a significant fraction of the time steps")
	return f
}

// fig3 — "Compiled Mode Simulation Results": speed-up versus processors.
// Paper: 10-13x at 15 processors for homogeneous gate circuits; the
// functional multiplier is poor (few elements, dissimilar costs).
func fig3(cfg Config) *Figure {
	f := &Figure{
		ID:     "fig3",
		Title:  "Compiled-mode speed-up vs processors (" + cfg.Mode.String() + " mode)",
		XLabel: "P",
		YLabel: "speed-up",
	}
	ps := procSweep(cfg.MaxP)
	steps := int64(128)
	realHorizon := circuit.Time(128)
	if cfg.Quick {
		steps, realHorizon = 48, 48
	}
	for _, name := range []string{"inverter-array", "mult16-gate", "mult16-func"} {
		b := cfg.benches()[name]
		c := b.build()
		var run func(int) (float64, float64)
		if cfg.Mode == Model {
			run = cfg.modelCompiled(c, steps)
		} else {
			run = cfg.realEngine("compiled", c, realHorizon, nil)
		}
		f.Series = append(f.Series, speedupSeries(name, ps, run))
	}
	f.Notes = append(f.Notes,
		"paper: compiled mode wins on circuits with many similar elements, but if",
		"element activity is low most of the speed-up is meaningless — the",
		"event-driven approach would be faster overall")
	return f
}

// fig4 — "Speedups for the Asynchronous Algorithm". Paper: inverter array
// best (91% utilisation at 8 processors), then the gate multiplier; the
// 100-element functional multiplier pipelines.
func fig4(cfg Config) *Figure {
	f := &Figure{
		ID:     "fig4",
		Title:  "Asynchronous algorithm speed-up vs processors (" + cfg.Mode.String() + " mode)",
		XLabel: "P",
		YLabel: "speed-up",
	}
	ps := procSweep(cfg.MaxP)
	for _, name := range []string{"inverter-array", "mult16-gate", "mult16-func"} {
		b := cfg.benches()[name]
		c := b.build()
		var run func(int) (float64, float64)
		if cfg.Mode == Model {
			_, g := seq.Collect(c, b.horizon)
			run = cfg.modelAsync(c, g)
		} else {
			run = cfg.realEngine("asynchronous", c, b.horizon, nil)
		}
		f.Series = append(f.Series, speedupSeries(name, ps, run))
	}
	p8 := 8
	if p8 > cfg.MaxP {
		p8 = cfg.MaxP
	}
	f.Notes = append(f.Notes,
		fmt.Sprintf("inverter-array utilisation (speed-up/P) at P=%d: %.0f%% (paper: 91%% at 8)",
			p8, 100*utilAt(f.Series[0], p8)),
		"paper: the functional multiplier is small (100 elements) so evaluation",
		"pipelines, raising scheduling overhead per event")
	return f
}

// fig5 — "Comparative Speeds for the Inverter Array": event-driven vs
// asynchronous speed-up on one plot. Paper: async utilisation 68% at 16
// processors, 10-20% above the event-driven algorithm.
func fig5(cfg Config) *Figure {
	f := &Figure{
		ID:     "fig5",
		Title:  "Event-driven vs asynchronous on the inverter array (" + cfg.Mode.String() + " mode)",
		XLabel: "P",
		YLabel: "speed-up",
	}
	b := cfg.benches()["inverter-array"]
	c := b.build()
	ps := procSweep(cfg.MaxP)
	var edRun, asRun func(int) (float64, float64)
	if cfg.Mode == Model {
		steps, g := seq.Collect(c, b.horizon)
		edRun = cfg.modelEventDriven(c, steps, machine.EDDistributed)
		asRun = cfg.modelAsync(c, g)
	} else {
		edRun = cfg.realEngine("event-driven", c, b.horizon, nil)
		asRun = cfg.realEngine("asynchronous", c, b.horizon, nil)
	}
	f.Series = append(f.Series,
		speedupSeries("event-driven", ps, edRun),
		speedupSeries("asynchronous", ps, asRun))
	pTop := cfg.MaxP
	edU := utilAt(f.Series[0], pTop)
	asU := utilAt(f.Series[1], pTop)
	f.Notes = append(f.Notes,
		fmt.Sprintf("utilisation (speed-up/P) at P=%d: asynchronous %.0f%%, event-driven %.0f%%",
			pTop, 100*asU, 100*edU),
		"paper: asynchronous utilisation 68% at 16 processors, 10-20% above event-driven")
	return f
}

// t1 — text claim §5: "The uniprocessor version of the asynchronous
// algorithm ranges between 1 to 3 times faster than the event-driven
// algorithm."
func t1(cfg Config) *Figure {
	f := &Figure{
		ID:     "t1",
		Title:  "Uniprocessor asynchronous vs event-driven speed ratio (" + cfg.Mode.String() + " mode)",
		XLabel: "circuit",
		YLabel: "ratio",
	}
	i := 0.0
	for _, name := range []string{"inverter-array", "mult16-gate", "mult16-func", "microprocessor"} {
		b := cfg.benches()[name]
		c := b.build()
		var ed, as float64
		if cfg.Mode == Model {
			steps, g := seq.Collect(c, b.horizon)
			ed, _ = cfg.modelEventDriven(c, steps, machine.EDDistributed)(1)
			as, _ = cfg.modelAsync(c, g)(1)
		} else {
			ed, _ = cfg.realEngine("event-driven", c, b.horizon, nil)(1)
			as, _ = cfg.realEngine("asynchronous", c, b.horizon, nil)(1)
		}
		ratio := 0.0
		if as > 0 {
			ratio = ed / as
		}
		f.Series = append(f.Series, Series{Name: name, X: []float64{i}, Y: []float64{ratio}})
		i++
	}
	f.Notes = append(f.Notes, "paper: ratio ranges from 1 to 3 depending on the circuit")
	return f
}

// t2 — text claims §2: the central-queue design peaked near 2x with 8
// processors; distributed queues with stealing gained 15-20% utilisation
// over static distribution.
func t2(cfg Config) *Figure {
	f := &Figure{
		ID:     "t2",
		Title:  "Event-driven work distribution ablation, inverter array (" + cfg.Mode.String() + " mode)",
		XLabel: "P",
		YLabel: "speed-up",
	}
	b := cfg.benches()["inverter-array"]
	c := b.build()
	ps := procSweep(cfg.MaxP)
	type variant struct {
		name  string
		model machine.EDMode
		tweak func(*engine.Config)
	}
	for _, v := range []variant{
		{"central", machine.EDCentral, func(ec *engine.Config) { ec.CentralQueue = true }},
		{"no-steal", machine.EDNoSteal, func(ec *engine.Config) { ec.NoSteal = true }},
		{"distributed", machine.EDDistributed, nil},
	} {
		var run func(int) (float64, float64)
		if cfg.Mode == Model {
			steps, _ := seq.Collect(c, b.horizon)
			run = cfg.modelEventDriven(c, steps, v.model)
		} else {
			run = cfg.realEngine("event-driven", c, b.horizon, v.tweak)
		}
		f.Series = append(f.Series, speedupSeries(v.name, ps, run))
	}
	f.Notes = append(f.Notes,
		"paper: the central-queue version peaked at ~2x with 8 processors;",
		"round-robin distributed queues plus end-of-phase stealing gave 15-20%",
		"better utilisation than static load balancing")
	return f
}

// t3 — text claim §4: even for ~5000-gate circuits there can be fewer than
// 5 events available about 50% of the time.
func t3(cfg Config) *Figure {
	f := &Figure{
		ID:     "t3",
		Title:  "Event availability per time step (sequential trace)",
		XLabel: "circuit",
		YLabel: "fraction of steps with <5 events",
	}
	// The Gray-stimulus multiplier is the paper's scenario: a big gate
	// circuit driven by a realistic low-activity vector suite.
	grayCfg := gen.DefaultMultiplier()
	grayCfg.Gray = true
	grayCfg.InPeriod = 96
	// Finer clock granularity spreads each cascade over more time steps;
	// the paper notes its availability numbers "depend on the type of
	// circuit and the clock granularity".
	grayCfg.GateDelay = 4
	grayHorizon := circuit.Time(2048)
	if cfg.Quick {
		grayHorizon = 512
	}
	type row struct {
		name    string
		c       *circuit.Circuit
		horizon circuit.Time
	}
	gate := cfg.benches()["mult16-gate"]
	cpu := cfg.benches()["microprocessor"]
	arr := cfg.benches()["inverter-array"]
	rows := []row{
		{"mult16-gate-gray", gen.GateMultiplier(grayCfg), grayHorizon},
		{"mult16-gate-rand", gate.build(), gate.horizon},
		{"microprocessor", cpu.build(), cpu.horizon},
		{"inverter-array", arr.build(), arr.horizon},
	}
	for i, r := range rows {
		res, err := engine.Run(context.Background(), r.c, engine.Config{Engine: "sequential", Horizon: r.horizon, CollectAvail: true})
		if err != nil {
			panic("harness: sequential: " + err.Error())
		}
		frac := res.Stats.Avail.FractionBelow(5)
		f.Series = append(f.Series, Series{Name: r.name, X: []float64{float64(i)}, Y: []float64{frac}})
		f.Notes = append(f.Notes, fmt.Sprintf(
			"%s: %d steps, mean %.1f events/step, median %d, max %d, %.0f%% of steps below 5",
			r.name, res.Stats.Avail.N(), res.Stats.Avail.Mean(),
			res.Stats.Avail.Quantile(0.5), res.Stats.Avail.Max(), 100*frac))
	}
	f.Notes = append(f.Notes, "paper: <5 events available ~50% of the time on a 5000-gate circuit")
	return f
}

// t4 — §4.1: long feedback chains are the asynchronous algorithm's worst
// case; the simulation degenerates to one event at a time around the loop.
func t4(cfg Config) *Figure {
	f := &Figure{
		ID:     "t4",
		Title:  "Asynchronous algorithm on a long feedback chain (" + cfg.Mode.String() + " mode)",
		XLabel: "P",
		YLabel: "speed-up",
	}
	length := 31
	horizon := circuit.Time(1500)
	if cfg.Quick {
		length, horizon = 15, 500
	}
	ring := gen.FeedbackChain(length)
	array := gen.InverterArray(gen.DefaultInverterArray())
	arrayHorizon := circuit.Time(192)
	if cfg.Quick {
		arrayHorizon = 96
	}
	ps := procSweep(cfg.MaxP)
	var ringRun, arrRun func(int) (float64, float64)
	if cfg.Mode == Model {
		_, ringGraph := seq.Collect(ring, horizon)
		_, arrGraph := seq.Collect(array, arrayHorizon)
		ringRun = cfg.modelAsync(ring, ringGraph)
		arrRun = cfg.modelAsync(array, arrGraph)
	} else {
		ringRun = cfg.realEngine("asynchronous", ring, horizon, nil)
		arrRun = cfg.realEngine("asynchronous", array, arrayHorizon, nil)
	}
	f.Series = append(f.Series,
		speedupSeries(fmt.Sprintf("feedback-chain-%d", length), ps, ringRun),
		speedupSeries("inverter-array", ps, arrRun))
	f.Notes = append(f.Notes,
		"paper: with a feedback loop the algorithm reduces to one event at a time;",
		"for such circuits the event-driven algorithm can be faster at high P")
	return f
}

// t5 — related-work baselines (paper §1): Arnold's rollback-based
// optimistic simulator ("performance primarily limited by detecting and
// processing the rollbacks ... leads to a major state storage problem")
// and the distributed-memory port the paper names as future work. All
// three asynchronous variants produce identical histories; this experiment
// contrasts their overheads.
func t5(cfg Config) *Figure {
	f := &Figure{
		ID:     "t5",
		Title:  "Asynchronous variants: conservative vs optimistic vs message-passing",
		XLabel: "circuit",
		YLabel: "overhead",
	}
	workers := 4
	if cfg.MaxP < workers {
		workers = cfg.MaxP
	}
	type row struct {
		name    string
		build   func() *circuit.Circuit
		horizon circuit.Time
	}
	mult := gen.DefaultMultiplier()
	rows := []row{
		{"inverter-array", func() *circuit.Circuit {
			return gen.InverterArray(gen.DefaultInverterArray())
		}, 192},
		{"mult16-gate", func() *circuit.Circuit { return gen.GateMultiplier(mult) }, mult.InPeriod * 2},
		{"feedback-chain", func() *circuit.Circuit { return gen.FeedbackChain(31) }, 1200},
	}
	if cfg.Quick {
		rows[0].horizon, rows[1].horizon, rows[2].horizon = 96, mult.InPeriod, 400
	}
	// The distributed variant's message count stays in the notes only: it
	// moves with goroutine interleaving, so it cannot be a gated series.
	var rollbacks, saved, cmRounds Series
	rollbacks.Name = "tw-rollbacks/1k-events"
	saved.Name = "tw-peak-saved-state"
	cmRounds.Name = "cm-deadlocks"
	runAlg := func(alg string, c *circuit.Circuit, horizon circuit.Time) *engine.Report {
		rep, err := engine.Run(context.Background(), c,
			engine.Config{Engine: alg, Workers: workers, Horizon: horizon})
		if err != nil {
			panic("harness: " + alg + ": " + err.Error())
		}
		return rep
	}
	for i, r := range rows {
		c := r.build()
		cons := runAlg("asynchronous", c, r.horizon)
		opt := runAlg("time-warp", c, r.horizon)
		msg := runAlg("distributed-async", c, r.horizon)
		cm := runAlg("chandy-misra", c, r.horizon)
		optTot := opt.Stats.Totals()
		nMsgs := msg.Stats.Totals().Messages
		ev := float64(cons.Stats.NodeUpdates)
		if ev == 0 {
			ev = 1
		}
		x := float64(i)
		rollbacks.X = append(rollbacks.X, x)
		rollbacks.Y = append(rollbacks.Y, float64(optTot.Rollbacks)/ev*1000)
		saved.X = append(saved.X, x)
		saved.Y = append(saved.Y, float64(opt.PeakLog))
		cmRounds.X = append(cmRounds.X, x)
		cmRounds.Y = append(cmRounds.Y, float64(cm.Rounds))
		f.Notes = append(f.Notes, fmt.Sprintf(
			"%s (P=%d, %d events): time-warp %d rollbacks, %d steps undone, %d anti-messages, peak saved state %d; chandy-misra broke %d deadlocks; the incremental algorithm saves nothing, never rolls back and never deadlocks; distributed sent %d messages",
			r.name, workers, cons.Stats.NodeUpdates, optTot.Rollbacks, optTot.RolledBack,
			optTot.Cancelled, opt.PeakLog, cm.Rounds, nMsgs))
	}
	f.Series = append(f.Series, rollbacks, saved, cmRounds)
	f.Notes = append(f.Notes,
		"paper on the optimistic baseline: speed-up limited by rollback handling and",
		"the state storage its rollback mechanism requires; the conservative",
		"asynchronous algorithm eliminates both by consuming only known-valid events")
	return f
}

// Command parsim simulates a netlist with any of the registered
// algorithms.
//
// Usage:
//
//	parsim -netlist adder.net -alg async -workers 4 -horizon 10000 \
//	       -watch sum,carry -vcd out.vcd
//
// The built-in benchmark circuits are available without a netlist file via
// -bench (inverter-array, mult16-gate, mult16-func, microprocessor,
// feedback-chain). -timeout bounds the wall-clock time of a run; on expiry
// the partial statistics accumulated so far are printed.
//
// -json replaces the text summary with a machine-readable run report on
// stdout — the same schema the parsimd daemon serves for finished jobs.
//
// -alg vector and -alg jit select the levelized plane core: the levelized
// schedule is lowered at run start into per-level fused batch loops over
// flat struct-of-arrays planes, and N bit-parallel stimulus lanes advance
// through it together. -lanes packs seed-shifted stimulus vectors into one
// run (64 per machine word, planes widen beyond that; 0 means 64 under the
// name vector and 1 under jit — the only difference between the two, and
// what makes jit the fastest scalar engine on unit-delay circuits),
// -lane-stride sets the per-lane rand/gray seed offset, and -probe-lane
// picks the lane that -watch, -vcd and the final values observe.
//
// -faults turns the run into concurrent stuck-at fault simulation on the
// plane core (-alg vector when -alg is not given): lane 0 simulates
// the good machine, every other lane injects one fault from the circuit's
// collapsed stuck-at list, and the run reports fault coverage.
// -fault-passes caps the chunked passes; -fault-statuses lists every fault
// site with its detection step in the JSON report.
//
// -checkpoint writes a crash-durable snapshot of the run into a file at a
// periodic quiescent point (atomic rewrite — a crash mid-save leaves the
// previous snapshot intact); -checkpoint-every sets the interval in time
// steps. -resume continues from such a snapshot under the same netlist and
// options, replaying bit-identically to an uninterrupted run. Sequential,
// compiled, vector and jit runs (including fault simulation) support it.
//
// -alg and -engine are two spellings of one flag: the engine's registry
// name or alias (when both are given, the last one wins). Its headline
// value is `-engine auto`, which profiles the circuit statically, ranks
// the five engines auto can pick through the cost model, and runs the
// predicted winner (the selection is printed, and lands under "selected"
// in the JSON report). -workers then acts as a budget the winner may
// undershoot.
//
// -lint warn|strict runs the static analyzer before simulating and refuses
// hazardous circuits (zero-delay combinational cycles, undriven inputs).
// The analyze subcommand runs the same analyzer standalone:
//
//	parsim analyze -netlist adder.net -workers 4 -strategy blocks
//	parsim analyze -bench feedback-chain -json
//
// Exit status 1 when the report contains Error-severity diagnostics.
//
// The profile subcommand prints the static fingerprint engine=auto selects
// on — levelization, fanout, activity estimate, feedback census, partition
// cut quality — plus the selection auto would make for a worker budget,
// -lanes, -spin and -horizon: the winner first, then the rest of its
// ranking, with the confidence auto reports:
//
//	parsim profile -bench mult16-gate -workers 8
//	parsim profile -netlist adder.net -json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"

	"parsim"
	"parsim/internal/analyze"
	"parsim/internal/auto"
	"parsim/internal/cluster"
	"parsim/internal/engine"
	"parsim/internal/partition"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "analyze" {
		runAnalyze(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "profile" {
		if err := runProfile(os.Args[2:], os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	var (
		netlistPath = flag.String("netlist", "", "netlist file to simulate")
		benchName   = flag.String("bench", "", "built-in benchmark circuit: inverter-array, mult16-gate, mult16-func, microprocessor, feedback-chain")
		workers     = flag.Int("workers", runtime.NumCPU(), "parallel workers")
		horizon     = flag.Int64("horizon", 1000, "simulation horizon in ticks")
		timeout     = flag.Duration("timeout", 0, "cancel the run after this wall-clock duration (0 = none)")
		watch       = flag.String("watch", "", "comma-separated node names to trace")
		vcdPath     = flag.String("vcd", "", "write watched-node waveforms to this VCD file")
		noSteal     = flag.Bool("no-steal", false, "event-driven: disable work stealing")
		central     = flag.Bool("central", false, "event-driven: use the contended central queue")
		lanes       = flag.Int("lanes", 0, fmt.Sprintf("vector/jit: stimulus lanes, 1-%d (0 = 64, one word, for vector and 1 for jit; wider counts use multi-word planes)", parsim.MaxLanes))
		laneStride  = flag.Int64("lane-stride", 0, "vector/jit: per-lane rand/gray seed offset (0 = 1)")
		probeLane   = flag.Int("probe-lane", 0, "vector/jit: lane observed by -watch/-vcd and reported as final values")
		faults      = flag.Bool("faults", false, "run concurrent stuck-at fault simulation (vector or jit; vector unless -alg is given)")
		faultPasses = flag.Int("fault-passes", 0, "faults: cap the number of chunked fault passes (0 = simulate the whole list)")
		faultStat   = flag.Bool("fault-statuses", false, "faults: include per-fault site/step rows in the JSON report")
		spin        = flag.Int64("spin", 0, "synthetic work multiplier per evaluation")
		summary     = flag.Bool("summary", false, "print circuit statistics before simulating")
		lintFlag    = flag.String("lint", "off", "pre-flight static analysis: off, warn (refuse errors), strict (refuse warnings too)")
		watchdog    = flag.Duration("watchdog", 0, "abort the run when progress stalls for this long (0 = off)")
		fallback    = flag.Bool("fallback", false, "re-run once on the sequential engine if the run panics or stalls")
		ckptPath    = flag.String("checkpoint", "", "write a crash-durable snapshot to this file at a periodic quiescent point")
		ckptEvery   = flag.Int64("checkpoint-every", 0, "snapshot interval in time steps (0 = 256)")
		resumeFrom  = flag.String("resume", "", "resume from a snapshot file written by -checkpoint; the run must use the same netlist and options")
		jsonOut     = flag.Bool("json", false, "emit the run report as JSON (the same schema the parsimd daemon serves)")
		submitAddr  = flag.String("submit", "", "run remotely: submit the job to a parsimd node or fleet coordinator at this address and poll for the result")
	)
	name := "async"
	for _, f := range []string{"alg", "engine"} {
		flag.StringVar(&name, f, name, "engine: "+strings.Join(engine.Names(), ", ")+
			" (or an alias: seq, event, async, dist, tw, cm); \"auto\" profiles the circuit and runs the cost model's predicted winner")
	}
	flag.Parse()
	if *submitAddr != "" {
		if set := unsubmittable(flag.CommandLine); len(set) > 0 {
			fatal(fmt.Errorf("-submit cannot carry %s: the job body has no field for them", strings.Join(set, ", ")))
		}
	}

	lint, err := engine.ParseLintMode(*lintFlag)
	if err != nil {
		fatal(err)
	}

	c, err := loadCircuit(*netlistPath, *benchName)
	if err != nil {
		fatal(err)
	}
	if *summary {
		fmt.Print(parsim.NetlistSummary(c))
	}

	// Resolve the engine through the same registry the facade, the figure
	// harness and the daemon dispatch through. Fault simulation rides on
	// lanes; -faults implies the plane core's 64-lane name unless the user
	// explicitly picked an engine.
	if *faults {
		algSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "alg" || f.Name == "engine" {
				algSet = true
			}
		})
		if !algSet {
			name = "vector"
		}
	}
	eng, err := engine.Get(name)
	if err != nil {
		fatal(err)
	}

	opts := parsim.Options{
		Engine:         eng.Name(),
		Workers:        *workers,
		Horizon:        parsim.Time(*horizon),
		CostSpin:       *spin,
		NoSteal:        *noSteal,
		CentralQueue:   *central,
		Lint:           lint,
		Watchdog:       *watchdog,
		Fallback:       *fallback,
		Checkpoint:     parsim.CheckpointSpec{Path: *ckptPath, EverySteps: *ckptEvery},
		ResumeFrom:     *resumeFrom,
		Lanes:          *lanes,
		LaneStride:     *laneStride,
		ProbeLane:      *probeLane,
		FaultSim:       *faults,
		FaultMaxPasses: *faultPasses,
		FaultStatuses:  *faultStat,
	}
	if *submitAddr != "" {
		var watchNames []string
		if *watch != "" {
			for _, n := range strings.Split(*watch, ",") {
				watchNames = append(watchNames, strings.TrimSpace(n))
			}
		}
		runSubmit(*submitAddr, c, &cluster.Submission{
			Engine:         opts.Engine,
			Workers:        opts.Workers,
			Horizon:        int64(opts.Horizon),
			DeadlineMS:     timeout.Milliseconds(),
			WatchdogMS:     opts.Watchdog.Milliseconds(),
			Lint:           opts.Lint.String(),
			Fallback:       opts.Fallback,
			CostSpin:       opts.CostSpin,
			Watch:          watchNames,
			Lanes:          opts.Lanes,
			LaneStride:     opts.LaneStride,
			ProbeLane:      opts.ProbeLane,
			FaultSim:       opts.FaultSim,
			FaultMaxPasses: opts.FaultMaxPasses,
			FaultStatuses:  opts.FaultStatuses,
		}, *jsonOut)
		return
	}
	if eng.Name() == parsim.Sequential {
		opts.Workers = 1
	}

	var rec *parsim.Recorder
	var watched []parsim.NodeID
	if *watch != "" {
		for _, name := range strings.Split(*watch, ",") {
			n := c.FindNode(strings.TrimSpace(name))
			if n == nil {
				fatal(fmt.Errorf("no node named %q", name))
			}
			watched = append(watched, n.ID)
		}
		rec = parsim.NewRecorderFor(watched...)
		opts.Probe = rec
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := parsim.SimulateContext(ctx, c, opts)
	if err != nil {
		switch {
		case res == nil:
			fatal(err)
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			fmt.Fprintf(os.Stderr, "run cancelled after %v: %v (partial statistics follow)\n", *timeout, err)
		case parsim.IsRecoverable(err):
			fmt.Fprintf(os.Stderr, "run aborted by the supervisor: %v (partial statistics follow)\n", err)
		default:
			fatal(err)
		}
	}
	if *jsonOut {
		// The run-report schema shared with the parsimd daemon
		// (Result.MarshalJSON); diagnostics above go to stderr so stdout
		// stays parseable.
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
	} else {
		if res.Degraded {
			fmt.Printf("%s engine failed (%v); results below come from the sequential fallback\n",
				eng.Name(), res.Fault)
		}
		if sel := res.Selected; sel != nil {
			fmt.Printf("auto selected %s (workers %d", sel.Engine, sel.Workers)
			if sel.Strategy != "" {
				fmt.Printf(", strategy %s", sel.Strategy)
			}
			if sel.Lanes > 0 {
				fmt.Printf(", lanes %d", sel.Lanes)
			}
			fmt.Printf(", confidence %.2f)\n", sel.Confidence)
		}
		fmt.Println(res.Stats.String())
		if res.FaultCoverage != nil {
			fmt.Println(res.FaultCoverage.String())
		}
		for _, n := range watched {
			fmt.Printf("%s: final=%v, %d changes\n",
				c.Nodes[n].Name, res.Final[n], len(rec.History(n)))
		}
	}
	if *vcdPath != "" && rec != nil {
		if err := writeVCDFile(*vcdPath, c, rec, opts.Horizon, watched); err != nil {
			fatal(err)
		}
		if !*jsonOut {
			fmt.Printf("wrote %s\n", *vcdPath)
		}
	}
}

// writeVCDFile renders the recorded waveforms into path, propagating the
// Close error — the write isn't durable until the file closes cleanly.
func writeVCDFile(path string, c *parsim.Circuit, rec *parsim.Recorder, horizon parsim.Time, watched []parsim.NodeID) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := parsim.WriteVCD(f, c, rec, horizon, watched...); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// runAnalyze implements the analyze subcommand: run the static analyzer
// standalone and print the report as text or JSON. Exits 1 when the
// circuit has Error-severity diagnostics (the ones LintWarn refuses).
func runAnalyze(argv []string) {
	fs := flag.NewFlagSet("parsim analyze", flag.ExitOnError)
	var (
		netlistPath = fs.String("netlist", "", "netlist file to analyze")
		benchName   = fs.String("bench", "", "built-in benchmark circuit (see parsim -help)")
		workers     = fs.Int("workers", 0, "include a partition-quality report for this many workers (0 = skip)")
		stratName   = fs.String("strategy", "round-robin", "partition strategy: round-robin, blocks, cost-lpt")
		jsonOut     = fs.Bool("json", false, "emit the report as JSON instead of text")
	)
	if err := fs.Parse(argv); err != nil {
		fatal(err)
	}
	strategy, err := partition.ParseStrategy(*stratName)
	if err != nil {
		fatal(err)
	}
	c, err := loadCircuit(*netlistPath, *benchName)
	if err != nil {
		fatal(err)
	}
	rep := analyze.Analyze(c, analyze.Options{Workers: *workers, Strategy: strategy})
	if *jsonOut {
		err = rep.WriteJSON(os.Stdout)
	} else {
		err = rep.WriteText(os.Stdout)
	}
	if err != nil {
		fatal(err)
	}
	if errs, _, _ := rep.Counts(); errs > 0 {
		os.Exit(1)
	}
}

// runProfile implements the profile subcommand: print the static circuit
// fingerprint and the selection the auto engine would make from it — the
// winner first, then the rest of its ranking — without running a
// simulation.
func runProfile(argv []string, w io.Writer) error {
	fs := flag.NewFlagSet("parsim profile", flag.ExitOnError)
	var (
		netlistPath = fs.String("netlist", "", "netlist file to profile")
		benchName   = fs.String("bench", "", "built-in benchmark circuit (see parsim -help)")
		workers     = fs.Int("workers", runtime.NumCPU(), "worker budget for the engine predictions")
		lanes       = fs.Int("lanes", 0, "stimulus lanes the job would use (forces the plane core, jit, when > 1)")
		spin        = fs.Int64("spin", 0, "synthetic work multiplier per evaluation, as -spin on a run")
		horizon     = fs.Int64("horizon", 1000, "simulation horizon in ticks the job would run, as -horizon on a run")
		jsonOut     = fs.Bool("json", false, "emit profile and predictions as JSON instead of text")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	c, err := loadCircuit(*netlistPath, *benchName)
	if err != nil {
		return err
	}
	sel, _ := auto.Choose(c, engine.Config{Workers: *workers, Lanes: *lanes, CostSpin: *spin, Horizon: parsim.Time(*horizon)})
	win := slices.IndexFunc(sel.Ranking, func(ch engine.Choice) bool { return ch.Engine == sel.Engine })
	preds := append([]engine.Choice{sel.Ranking[win]}, slices.Delete(slices.Clone(sel.Ranking), win, win+1)...)
	if *jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Profile     *parsim.CircuitProfile `json:"profile"`
			Predictions []engine.Choice        `json:"predictions"`
			Confidence  float64                `json:"confidence"`
		}{sel.Profile, preds, sel.Confidence})
	}
	if err := sel.Profile.WriteText(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nengine predictions (budget %d workers, horizon %d, confidence %.2f):\n", *workers, *horizon, sel.Confidence)
	for i, pr := range preds {
		line := fmt.Sprintf("  %d. %-17s span %10.1f  workers %d", i+1, pr.Engine, pr.Span, pr.Workers)
		if pr.Strategy != "" {
			line += "  strategy " + pr.Strategy
		}
		if pr.Lanes > 0 {
			line += fmt.Sprintf("  lanes %d", pr.Lanes)
		}
		switch {
		case !pr.Eligible:
			line += "  [ineligible: " + pr.Reason + "]"
		case pr.Reason != "":
			line += "  [" + pr.Reason + "]"
		}
		fmt.Fprintln(w, line)
	}
	return nil
}

func loadCircuit(path, bench string) (*parsim.Circuit, error) {
	switch {
	case path != "" && bench != "":
		return nil, fmt.Errorf("give either -netlist or -bench, not both")
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return parsim.ReadNetlist(f)
	case bench != "":
		switch bench {
		case "inverter-array":
			return parsim.BenchInverterArray(parsim.DefaultInverterArray()), nil
		case "mult16-gate":
			return parsim.BenchGateMultiplier(parsim.DefaultMultiplier()), nil
		case "mult16-func":
			return parsim.BenchFuncMultiplier(parsim.DefaultMultiplier()), nil
		case "microprocessor":
			return parsim.BenchCPU(parsim.DefaultCPU()), nil
		case "feedback-chain":
			return parsim.BenchFeedbackChain(31), nil
		}
		return nil, fmt.Errorf("unknown benchmark %q", bench)
	}
	return nil, fmt.Errorf("need -netlist or -bench")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "parsim:", strings.TrimPrefix(err.Error(), "parsim: "))
	os.Exit(1)
}

// Command bench is the repository's benchmark: four workloads, five
// end-to-end metrics measured with tracing off, and a traced run that
// prices every layer. BENCHMARK.json at the root of the repository names
// the workloads and metrics this program prints; README.md in this
// directory says what each is for.
//
//	bash bench/run.sh --workload levelized_p1 --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload daemon_e2e --seed 1 --seconds 20 --trace 1
//	bash bench/run.sh                  # every workload, untraced
//	bash bench/run.sh --selfcheck      # every workload twice, compared against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

type metricDef struct {
	name, unit string
}

// endToEnd is what an untraced run prints; BENCHMARK.json carries the same
// names and units, with the bound by which each may worsen.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"job_p50_gm_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"cpu_ms_per_job", "ms"},
	{"alloc_mb_per_job", "MB"},
}

// perLayer is what a traced run prints.
var perLayer = []metricDef{
	{"gen.build_ms", "ms"},
	{"netlist.write_us_per_elem", "us"},
	{"netlist.read_us_per_elem", "us"},
	{"circuit.clone_us_per_elem", "us"},
	{"analyze.lint_us_per_elem", "us"},
	{"analyze.levelize_cold_us_per_elem", "us"},
	{"analyze.levelize_warm_us_per_elem", "us"},
	{"analyze.profile_us_per_elem", "us"},
	{"partition.split_us_per_elem", "us"},
	{"machine.predict_us", "us"},
	{"auto.choose_ms", "ms"},
	{"auto.regret_ratio", "ratio"},
	{"cluster.key_us_per_elem", "us"},
	{"cluster.cache_get_ns", "ns"},
	{"cluster.ring_lookup_ns", "ns"},
	{"report.encode_us", "us"},
	{"report.bytes", "bytes"},
	{"server.post_ms", "ms"},
	{"server.queued_share", "share"},
	{"server.run_ms_mean", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.dedup_hit_share", "share"},
	{"server.rejected", "count"},
	{"client.polls_per_job", "count"},
	{"client.job_p95_ms", "ms"},
	{"engine.overhead_us", "us"},
	{"compiled.ns_per_eval_p1", "ns"},
	{"compiled.ns_per_eval_p2", "ns"},
	{"compiled.idle_share_p2", "share"},
	{"vector.ns_per_lane_eval_l64_p1", "ns"},
	{"vector.ns_per_lane_eval_l64_p2", "ns"},
	{"vector.ns_per_lane_eval_l256_p1", "ns"},
	{"vector.ns_per_lane_eval_l256_p2", "ns"},
	{"vector.idle_share_p2", "share"},
	{"codegen.ns_per_eval_p1", "ns"},
	{"codegen.ns_per_eval_p2", "ns"},
	{"codegen.ns_per_lane_eval_l256_p1", "ns"},
	{"codegen.ns_per_lane_eval_l256_p2", "ns"},
	{"codegen.idle_share_p2", "share"},
	{"codegen.p2_over_p1", "ratio"},
	{"seq.ns_per_eval", "ns"},
	{"parevent.ns_per_eval_p1", "ns"},
	{"parevent.ns_per_eval_p2", "ns"},
	{"parevent.idle_share_p2", "share"},
	{"core.ns_per_event_p1", "ns"},
	{"core.ns_per_event_p2", "ns"},
	{"core.idle_share_p2", "share"},
	{"core.evals_over_seq", "ratio"},
	{"process.peak_rss_mb", "MB"},
	{"process.gc_cycles_per_job", "count"},
	{"process.gc_pause_ms_per_job", "ms"},
	{"host.calib_ms", "ms"},
	{"host.rounds_discarded", "count"},
	{"trace.overhead_ratio", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// hostStamp says where a number was measured.
type hostStamp struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func stampHost() hostStamp {
	h := hostStamp{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown", // the build was not made inside a git checkout
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func (h hostStamp) String() string {
	return fmt.Sprintf("cores=%d gomaxprocs=%d go=%s commit=%s", h.Cores, h.GOMAXPROCS, h.GoVersion, h.Commit)
}

type config struct {
	start     time.Time // when the process started: where setup_s counts from
	seed      int64
	seconds   float64
	rounds    int // > 0: this many timed rounds instead of seconds of them
	warmup    int // untimed rounds that end a set-up
	setupOnly bool
	outDir    string
}

// coldSetUps is how many set-ups an untraced run times, each in a process
// of its own so that each pays every first-use cost: its own, and the
// others in children it starts one after another. setup_s is their median.
const coldSetUps = 3

// timer decides when a measured phase has run long enough.
type timer struct {
	cfg   config
	start time.Time
	done  int
}

func (cfg config) newTimer() *timer { return &timer{cfg: cfg, start: time.Now()} }

// more reports whether another round (or pair of rounds) should run.
func (t *timer) more() bool {
	t.done++
	if t.cfg.rounds > 0 {
		return t.done <= t.cfg.rounds
	}
	return t.done == 1 || time.Since(t.start).Seconds() < t.cfg.seconds
}

// processStart is read before any other package-level work of this
// program, as close to the start of the process as a Go program gets.
var processStart = time.Now()

func main() { os.Exit(run(processStart, os.Args[1:], os.Stdout, os.Stderr)) }

func run(start time.Time, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{start: start}
	name := fs.String("workload", "", "workload to run; empty runs every workload, each in a process of its own")
	trace := fs.Int("trace", 0, "1 runs the traced, per-layer run instead of the end-to-end one")
	selfcheck := fs.Bool("selfcheck", false, "run every workload twice and compare the two against BENCHMARK.json's bounds")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the job order and of the daemon submissions' names")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured phase")
	fs.IntVar(&cfg.rounds, "rounds", 0, "measure this many rounds instead of -seconds of them (smoke tests)")
	fs.IntVar(&cfg.warmup, "warmup", 3, "untimed warm-up rounds that end the set-up (smoke tests)")
	fs.BoolVar(&cfg.setupOnly, "setup-only", false, "set up, print setup_s and exit: what an untraced run starts to time a cold set-up")
	fs.StringVar(&cfg.outDir, "out", "bench/out", "directory the traced run writes its span file to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || cfg.warmup < 1 {
		fmt.Fprintln(stderr, "bench: unexpected arguments, or -warmup below 1")
		return 2
	}
	// Never more than two runnable goroutines of load: the box the driver
	// measures on has two cores, and a wider run would measure its scheduler.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	if *selfcheck || *name == "" {
		return runChildren(cfg, *selfcheck, stdout, stderr)
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(stderr, "bench: no workload %q\n", *name)
		return 2
	}
	fmt.Fprintf(stdout, "parsim bench workload=%s seed=%d trace=%d %v\n", w.name, cfg.seed, *trace, stampHost())
	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(cfg, w, stdout)
	} else {
		res, err = runUntraced(cfg, w, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// tally counts the jobs of some rounds and reports the first failure.
func tally(res *result, rounds []round, stdout io.Writer) {
	for i := range rounds {
		res.Attempted += len(rounds[i].jobs)
		if n := rounds[i].failed(); n > 0 {
			if res.Failed == 0 {
				fmt.Fprintf(stdout, "FAILED %s\n", rounds[i].firstFailure())
			}
			res.Failed += n
		}
	}
	res.Correct = res.Failed == 0
}

func report(res *result, defs []metricDef, values map[string]float64, stdout io.Writer) {
	res.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
		fmt.Fprintf(stdout, "%-36s %14.6g %s\n", d.name, values[d.name], d.unit)
	}
	fmt.Fprintf(stdout, "jobs attempted=%d succeeded=%d failed=%d\n", res.Attempted, res.Attempted-res.Failed, res.Failed)
}

// runUntraced measures the five end-to-end metrics of one workload.
func runUntraced(cfg config, w *workload, stdout io.Writer) (result, error) {
	var res result
	s, err := setUp(w, cfg.seed, cfg.warmup)
	if err != nil {
		return res, err
	}
	defer s.close()
	// Process start to the end of the last warm-up round, first-use costs
	// (the LevelSchedule memo, jit lowering, HTTP connections) included.
	setupS := []float64{time.Since(cfg.start).Seconds()}
	if cfg.setupOnly {
		res.Correct, res.Attempted = true, cfg.warmup*len(w.kinds)*max(w.clients, 1)
		report(&res, endToEnd[:1], map[string]float64{"setup_s": setupS[0]}, stdout)
		return res, nil
	}
	for len(setupS) < coldSetUps {
		child, err := runChild(cfg, w, io.Discard, "--setup-only")
		if err != nil {
			return res, err
		}
		setupS = append(setupS, child.Metrics["setup_s"].Value)
	}
	// The children had the cores since this process's last round.
	if err := s.warmUp(1); err != nil {
		return res, err
	}

	var rounds []round
	for t := cfg.newTimer(); t.more(); {
		r, err := s.runRound(nil)
		if err != nil {
			return res, err
		}
		rounds = append(rounds, r)
	}
	tally(&res, rounds, stdout)

	quiet := quietRounds(rounds)
	var perS, cpuMS, allocMB, calibMS []float64
	for i := range quiet {
		r := &quiet[i]
		jobs := float64(len(r.jobs))
		perS = append(perS, jobs/r.wall.Seconds())
		cpuMS = append(cpuMS, ms(r.cpu)/jobs)
		allocMB = append(allocMB, float64(r.alloc)/(1<<20)/jobs)
		calibMS = append(calibMS, ms(r.calib))
	}
	fmt.Fprintf(stdout, "rounds=%d kept=%d clients=%d kinds=%d set-ups=%v host.calib_ms=%.3f\n",
		len(rounds), len(quiet), max(w.clients, 1), len(w.kinds), setupS, median(calibMS))
	for ki, lat := range latenciesByKind(len(w.kinds), quiet) {
		fmt.Fprintf(stdout, "kind %-32v p50 %9.3f ms  n=%d\n", w.kinds[ki], median(lat), len(lat))
	}
	report(&res, endToEnd, map[string]float64{
		"setup_s":          median(setupS),
		"job_p50_gm_ms":    jobP50GM(len(w.kinds), quiet),
		"jobs_per_s":       median(perS),
		"cpu_ms_per_job":   median(cpuMS),
		"alloc_mb_per_job": median(allocMB),
	}, stdout)
	return res, nil
}

// runTraced prices the layers. It first probes every pipeline stage on the
// paper circuits, then runs one traced round of each other workload, so
// that every layer has a measured cost whichever workload was asked for,
// and spends the rest of the measured phase alternating untraced and
// traced rounds of the workload that was.
func runTraced(cfg config, w *workload, stdout io.Writer) (result, error) {
	var res result
	tr := newTracer()
	m := map[string]float64{}
	stages, err := probeStages(tr)
	if err != nil {
		return res, err
	}
	stages.metrics(m)

	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	t := cfg.newTimer()
	cen := census{}
	var all, plain, traced []round
	order := make([]*workload, 0, len(workloads))
	for _, o := range workloads {
		if o != w {
			order = append(order, o)
		}
	}
	for _, o := range append(order, w) {
		// One traced round of a workload that was not asked for; pairs of an
		// untraced and a traced round, until the time is up, of the one that was.
		var pairs *timer
		if o == w {
			pairs = t
		}
		untraced, rounds, err := tracedRounds(cfg, o, pairs, tr, m)
		if err != nil {
			return res, err
		}
		cen.collect(o, rounds)
		all = append(all, rounds...)
		if o == w {
			plain, traced = untraced, rounds
		}
	}
	all = append(all, plain...)
	tally(&res, all, stdout)
	cen.metrics(m)

	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	jobs := float64(res.Attempted)
	m["process.peak_rss_mb"] = peakRSSMB()
	m["process.gc_cycles_per_job"] = float64(gc1.NumGC-gc0.NumGC) / jobs
	m["process.gc_pause_ms_per_job"] = float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6 / jobs

	quietPlain, quietTraced := quietRounds(plain), quietRounds(traced)
	var calibMS []float64
	for i := range all {
		calibMS = append(calibMS, ms(all[i].calib))
	}
	wallMS := func(rounds []round) float64 {
		var xs []float64
		for i := range rounds {
			xs = append(xs, ms(rounds[i].wall))
		}
		return median(xs)
	}
	m["host.calib_ms"] = median(calibMS)
	m["host.rounds_discarded"] = float64(len(plain) + len(traced) - len(quietPlain) - len(quietTraced))
	m["trace.overhead_ratio"] = wallMS(quietTraced) / wallMS(quietPlain)

	path, err := tr.write(cfg.outDir, traceFile{Workload: w.name, Seed: cfg.seed, Host: stampHost(), Metrics: m})
	if err != nil {
		return res, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(stdout, "traced pairs=%d spans=%d file=%s\n", len(traced), len(tr.spans), path)
	report(&res, perLayer, m, stdout)
	return res, nil
}

// tracedRounds sets one workload up and runs its traced rounds: a single
// round, or with a timer pairs of an untraced and a traced round for as
// long as the timer allows. A daemon workload's server and client figures
// are taken while its daemon is still up.
func tracedRounds(cfg config, w *workload, pairs *timer, tr *tracer, m map[string]float64) (plain, traced []round, err error) {
	warmup := 1
	if pairs != nil {
		warmup = cfg.warmup
	}
	s, err := setUp(w, cfg.seed, warmup)
	if err != nil {
		return nil, nil, err
	}
	defer s.close()
	if pairs == nil {
		r, err := s.runRound(tr)
		if err != nil {
			return nil, nil, err
		}
		traced = []round{r}
	} else {
		for pairs.more() {
			for _, rtr := range []*tracer{nil, tr} {
				r, err := s.runRound(rtr)
				if err != nil {
					return nil, nil, err
				}
				if rtr == nil {
					plain = append(plain, r)
				} else {
					traced = append(traced, r)
				}
			}
		}
	}
	if w.clients > 0 {
		err = s.daemonMetrics(tr, traced, m)
	}
	return plain, traced, err
}

// daemonMetrics derives the server and client figures from the daemon
// workload's traced rounds, its /metrics, and an in-process replay of each
// kind's submission.
func (s *session) daemonMetrics(tr *tracer, rounds []round, m map[string]float64) error {
	// The job view reports queue wait and run wall in whole milliseconds, so
	// they are averaged, not ranked: the share of jobs that waited a
	// millisecond or more for cores, and the mean run wall.
	var postMS, queued, runMS, polls, latencyMS []float64
	for i := range rounds {
		for j := range rounds[i].jobs {
			o := &rounds[i].jobs[j]
			postMS = append(postMS, ms(o.postEnd.Sub(o.start)))
			polls = append(polls, float64(o.polls))
			latencyMS = append(latencyMS, ms(o.latency()))
			if !s.w.kinds[o.kind].hit {
				queued = append(queued, float64(min(o.queuedMS, 1)))
				runMS = append(runMS, float64(o.runMS))
			}
		}
	}
	m["server.post_ms"] = median(postMS)
	m["server.queued_share"] = mean(queued)
	m["server.run_ms_mean"] = mean(runMS)
	m["client.polls_per_job"] = mean(polls)
	m["client.job_p95_ms"] = quantile(latencyMS, 0.95)

	// Counted over every round since the set-up, traced or not: all of them
	// submit the same mix.
	ctr, err := s.counters()
	if err != nil {
		return err
	}
	since := func(name string) float64 { return ctr[name] - s.setUpCounters[name] }
	if n := since("parsimd_jobs_submitted_total"); n > 0 {
		m["server.dedup_hit_share"] = since("parsimd_dedup_hits_total") / n
	}
	m["server.rejected"] = since("parsimd_jobs_rejected_total")

	// server.overhead_ms: what HTTP, the queue and polling add to a job,
	// as the live latency of each miss kind minus its replayed stages.
	live := latenciesByKind(len(s.w.kinds), rounds)
	var over []float64
	for ki, k := range s.w.kinds {
		var replayMS []float64
		for i := 0; i < 3; i++ {
			d, err := s.replay(tr, k)
			if err != nil {
				return err
			}
			replayMS = append(replayMS, ms(d))
		}
		if !k.hit && len(live[ki]) > 0 {
			over = append(over, median(live[ki])-median(replayMS))
		}
	}
	m["server.overhead_ms"] = mean(over)
	return nil
}

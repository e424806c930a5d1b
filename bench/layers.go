package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"parsim"
	"parsim/internal/analyze"
	"parsim/internal/auto"
	"parsim/internal/cluster"
	"parsim/internal/engine"
	"parsim/internal/machine"
	"parsim/internal/netlist"
	"parsim/internal/partition"
)

// daemonLimits are the netlist limits parsimd applies by default.
var daemonLimits = netlist.Limits{MaxBytes: 8 << 20, MaxNodes: 200000, MaxElems: 200000}

// probeReps is how often each stage is timed per circuit; its cost there
// is the median of these.
const probeReps = 5

// stageCosts holds, per stage name, the median cost in microseconds on
// each paper circuit, in the order of paperCircuits.
type stageCosts struct {
	us    map[string][]float64
	elems []float64
	bytes []float64 // size of each circuit's encoded result

	cacheGetNS, ringLookupNS float64
}

// probeStages times every pipeline stage by calling the layers' public
// functions on each paper circuit, one span per call. It must run before
// anything else in the process has levelized these circuits, or the cold
// LevelSchedule cost is lost to the memo.
func probeStages(tr *tracer) (*stageCosts, error) {
	sc := &stageCosts{us: map[string][]float64{}}
	for _, name := range paperCircuits {
		job := tr.newJob()
		root := tr.reserve(job, "probe", time.Now())
		tr.detail(root, name)
		stage := func(stageName string, reps int, f func()) {
			var us []float64
			for i := 0; i < reps; i++ {
				us = append(us, float64(tr.time(root, job, stageName, f))/float64(time.Microsecond))
			}
			sc.us[stageName] = append(sc.us[stageName], median(us))
		}

		var c *parsim.Circuit
		stage("gen.build", probeReps, func() { c = generate(name) })
		sc.elems = append(sc.elems, float64(len(c.Elems)))

		// The first call on a circuit levelizes it; later calls, on clones as
		// the daemon makes them, find it in the memo by structural digest.
		stage("analyze.levelize_cold", 1, func() { analyze.LevelSchedule(c) })
		clone := c.Clone()
		stage("analyze.levelize_warm", probeReps, func() { analyze.LevelSchedule(clone) })

		var text bytes.Buffer
		var err error
		stage("netlist.write", probeReps, func() {
			text.Reset()
			err = parsim.WriteNetlist(&text, c)
		})
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", name, err)
		}
		stage("netlist.read", probeReps, func() {
			_, err = netlist.ReadLimited(strings.NewReader(text.String()), daemonLimits)
		})
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", name, err)
		}
		stage("circuit.clone", probeReps, func() { c.Clone() })
		stage("analyze.lint", probeReps, func() { parsim.Analyze(c, parsim.AnalyzeOptions{}) })
		stage("partition.split", probeReps, func() { partition.Split(c, 2, partition.RoundRobin) })
		var prof *parsim.CircuitProfile
		stage("analyze.profile", probeReps, func() { prof = parsim.Profile(c) })
		stage("machine.predict", probeReps, func() { machine.Predict(prof, machine.PredictOptions{MaxWorkers: 1}) })
		cfg := engine.Config{Workers: 1, Horizon: horizon(name)}
		stage("auto.choose", probeReps, func() { auto.Choose(c, cfg) })
		sub := &cluster.Submission{Engine: "auto", Workers: 1, Horizon: int64(horizon(name)), Lint: "warn"}
		stage("cluster.key", probeReps, func() { cluster.KeyForSubmission(c, sub) })

		res, err := parsim.Simulate(c, parsim.Options{Engine: "sequential", Horizon: horizon(name)})
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", name, err)
		}
		var encoded []byte
		stage("report.encode", probeReps, func() { encoded, err = json.Marshal(res) })
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", name, err)
		}
		sc.bytes = append(sc.bytes, float64(len(encoded)))
		tr.finish(root, time.Now())
	}

	// The dedup cache at the daemon's capacity and a three-member ring, the
	// smallest fleet the cluster tests boot.
	const lookups = 2000
	cache := cluster.NewResultCache(256)
	ring := cluster.NewRing(0)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i)
		cache.Put(keys[i], i)
	}
	for _, m := range []string{"node-a", "node-b", "node-c"} {
		ring.Add(m)
	}
	job := tr.newJob()
	d := tr.time(0, job, "cluster.cache_get", func() {
		for i := 0; i < lookups; i++ {
			cache.Get(keys[i%len(keys)])
		}
	})
	sc.cacheGetNS = float64(d) / lookups
	d = tr.time(0, job, "cluster.ring_lookup", func() {
		for i := 0; i < lookups; i++ {
			ring.Lookup(keys[i%len(keys)])
		}
	})
	sc.ringLookupNS = float64(d) / lookups
	return sc, nil
}

// metrics turns the stage costs into the per-layer metrics that do not
// depend on the workload.
func (sc *stageCosts) metrics(m map[string]float64) {
	perElem := func(stage string) float64 { return sum(sc.us[stage]) / sum(sc.elems) }
	m["gen.build_ms"] = sum(sc.us["gen.build"]) / 1e3
	m["netlist.write_us_per_elem"] = perElem("netlist.write")
	m["netlist.read_us_per_elem"] = perElem("netlist.read")
	m["circuit.clone_us_per_elem"] = perElem("circuit.clone")
	m["analyze.lint_us_per_elem"] = perElem("analyze.lint")
	m["analyze.levelize_cold_us_per_elem"] = perElem("analyze.levelize_cold")
	m["analyze.levelize_warm_us_per_elem"] = perElem("analyze.levelize_warm")
	m["analyze.profile_us_per_elem"] = perElem("analyze.profile")
	m["partition.split_us_per_elem"] = perElem("partition.split")
	m["machine.predict_us"] = mean(sc.us["machine.predict"])
	m["auto.choose_ms"] = mean(sc.us["auto.choose"]) / 1e3
	m["cluster.key_us_per_elem"] = perElem("cluster.key")
	m["cluster.cache_get_ns"] = sc.cacheGetNS
	m["cluster.ring_lookup_ns"] = sc.ringLookupNS
	m["report.encode_us"] = mean(sc.us["report.encode"])
	m["report.bytes"] = mean(sc.bytes)
}

// replay runs one daemon submission through the stages parsimd puts it
// through, in process and one public call at a time, and returns the sum
// of the stage times: what the job costs with no HTTP, queue or polling
// around it.
func (s *session) replay(tr *tracer, k kind) (time.Duration, error) {
	body := s.submission(k)
	job := tr.newJob()
	root := tr.reserve(job, "replay", time.Now())
	tr.detail(root, k.String())
	var total time.Duration
	var err error
	stage := func(name string, f func()) {
		if err == nil {
			total += tr.time(root, job, name, f)
		}
	}

	var sub cluster.Submission
	var c *parsim.Circuit
	stage("server.decode", func() { err = json.Unmarshal(body, &sub) })
	stage("netlist.read", func() { c, err = netlist.ReadLimited(strings.NewReader(sub.Netlist), daemonLimits) })
	stage("cluster.key", func() { cluster.KeyForSubmission(c, &sub) })
	if k.hit {
		cache := cluster.NewResultCache(1)
		cache.Put("k", 0)
		stage("cluster.cache_get", func() { cache.Get("k") })
	} else {
		var run *parsim.Circuit
		var sel *parsim.Selection
		var icfg engine.Config
		var res *parsim.Result
		stage("circuit.clone", func() { run = c.Clone() })
		stage("analyze.lint", func() { err = parsim.Analyze(run, parsim.AnalyzeOptions{}).Err(false) })
		stage("auto.choose", func() {
			sel, icfg = auto.Choose(run, engine.Config{Workers: sub.Workers, Horizon: parsim.Time(sub.Horizon)})
		})
		stage("simulate", func() {
			res, err = parsim.SimulateContext(context.Background(), run, parsim.Options{
				Engine: sel.Engine, Workers: icfg.Workers, Strategy: icfg.Strategy,
				Lanes: icfg.Lanes, Horizon: icfg.Horizon,
			})
		})
		stage("report.encode", func() { _, err = json.Marshal(res) })
	}
	tr.finish(root, time.Now())
	if err != nil {
		return 0, fmt.Errorf("replay %v: %w", k, err)
	}
	return total, nil
}

// kindStats pools what the engines reported for one kind over the rounds
// of a traced run.
type kindStats struct {
	k         kind
	wallNS    []float64 // Stats.Wall
	overUS    []float64 // job latency minus Stats.Wall
	idleShare []float64 // sum of PerWorker.Idle over workers x Stats.Wall
	evals     float64
	events    float64
}

// census is every kind of every workload a traced run executed.
type census map[string]*kindStats

func (c census) collect(w *workload, rounds []round) {
	for i := range rounds {
		for j := range rounds[i].jobs {
			o := &rounds[i].jobs[j]
			if o.res == nil || o.failure != "" {
				continue
			}
			k := w.kinds[o.kind]
			ks := c[k.String()]
			if ks == nil {
				ks = &kindStats{k: k}
				c[k.String()] = ks
			}
			st := &o.res.Stats
			ks.wallNS = append(ks.wallNS, float64(st.Wall))
			ks.overUS = append(ks.overUS, float64(o.latency()-st.Wall)/float64(time.Microsecond))
			var idle time.Duration
			for p := range st.PerWorker {
				idle += st.PerWorker[p].Idle
			}
			if st.Wall > 0 && len(st.PerWorker) > 0 {
				ks.idleShare = append(ks.idleShare, float64(idle)/(float64(len(st.PerWorker))*float64(st.Wall)))
			}
			ks.evals, ks.events = float64(st.Evals), float64(st.EventsUsed)
		}
	}
}

// pick returns the library kinds of one (engine, lanes, workers) point
// over all circuits.
func (c census) pick(engineName string, lanes, workers int) []*kindStats {
	var out []*kindStats
	for _, ks := range c {
		if ks.k.engine == engineName && ks.k.lanes == lanes && ks.k.workers == workers {
			out = append(out, ks)
		}
	}
	return out
}

// unitCost is the kinds' summed median wall, in nanoseconds, over their
// summed work: a cost per evaluation (or per event) that counts every
// circuit by the work it does.
func unitCost(kinds []*kindStats, work func(*kindStats) float64) float64 {
	var wall, n float64
	for _, ks := range kinds {
		wall += median(ks.wallNS)
		n += work(ks)
	}
	if n == 0 {
		return 0
	}
	return wall / n
}

func idleShare(kinds []*kindStats) float64 {
	var shares []float64
	for _, ks := range kinds {
		shares = append(shares, median(ks.idleShare))
	}
	return mean(shares)
}

func evals(ks *kindStats) float64  { return ks.evals }
func events(ks *kindStats) float64 { return ks.events }
func laneEvals(lanes float64) func(*kindStats) float64 {
	return func(ks *kindStats) float64 { return ks.evals * lanes }
}

// metrics turns the census into the engines' unit costs and idle shares.
func (c census) metrics(m map[string]float64) {
	for _, p := range []int{1, 2} {
		sfx := fmt.Sprintf("_p%d", p)
		m["compiled.ns_per_eval"+sfx] = unitCost(c.pick("compiled", 0, p), evals)
		m["vector.ns_per_lane_eval_l64"+sfx] = unitCost(c.pick("vector", 64, p), laneEvals(64))
		m["vector.ns_per_lane_eval_l256"+sfx] = unitCost(c.pick("vector", 256, p), laneEvals(256))
		m["codegen.ns_per_eval"+sfx] = unitCost(c.pick("jit", 1, p), evals)
		m["codegen.ns_per_lane_eval_l256"+sfx] = unitCost(c.pick("jit", 256, p), laneEvals(256))
		m["parevent.ns_per_eval"+sfx] = unitCost(c.pick("event-driven", 0, p), evals)
		m["core.ns_per_event"+sfx] = unitCost(c.pick("asynchronous", 0, p), events)
	}
	m["compiled.idle_share_p2"] = idleShare(c.pick("compiled", 0, 2))
	m["vector.idle_share_p2"] = idleShare(append(c.pick("vector", 64, 2), c.pick("vector", 256, 2)...))
	m["codegen.idle_share_p2"] = idleShare(append(c.pick("jit", 1, 2), c.pick("jit", 256, 2)...))
	m["parevent.idle_share_p2"] = idleShare(c.pick("event-driven", 0, 2))
	m["core.idle_share_p2"] = idleShare(c.pick("asynchronous", 0, 2))
	if p1 := m["codegen.ns_per_eval_p1"]; p1 > 0 {
		m["codegen.p2_over_p1"] = m["codegen.ns_per_eval_p2"] / p1
	}
	seq := c.pick("sequential", 0, 1)
	m["seq.ns_per_eval"] = unitCost(seq, evals)
	var asyncEvals, seqEvals float64
	for _, ks := range c.pick("asynchronous", 0, 1) {
		asyncEvals += ks.evals
	}
	for _, ks := range seq {
		seqEvals += ks.evals
	}
	if seqEvals > 0 {
		m["core.evals_over_seq"] = asyncEvals / seqEvals
	}

	// engine.overhead_us: what SimulateContext adds around the engine's own
	// wall (validation, guard, checkpoint resolution), over the library
	// kinds; the daemon's kinds have HTTP and the queue in that gap.
	var over []float64
	for _, ks := range c {
		if ks.k.engine != "auto" {
			over = append(over, median(ks.overUS))
		}
	}
	m["engine.overhead_us"] = median(over)

	// auto.regret_ratio: the wall of the engine auto picked over the best
	// fixed one-worker engine's median wall on the same circuit, as a
	// geometric mean over the circuits both the daemon and a library
	// workload run. Base: the best fixed engine.
	var regrets []float64
	for _, ks := range c {
		if ks.k.engine != "auto" || ks.k.hit {
			continue
		}
		best := 0.0
		for _, fixed := range c {
			if fixed.k.circuit == ks.k.circuit && fixed.k.engine != "auto" && fixed.k.workers == 1 && fixed.k.lanes <= 1 {
				if w := median(fixed.wallNS); best == 0 || w < best {
					best = w
				}
			}
		}
		if best > 0 {
			regrets = append(regrets, median(ks.wallNS)/best)
		}
	}
	m["auto.regret_ratio"] = geomean(regrets)
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"parsim"
)

// kind is one job kind: a (circuit, engine, lanes, workers) tuple. A round
// issues every kind of its workload once per client.
type kind struct {
	circuit string
	engine  string
	lanes   int
	workers int
	// hit marks a daemon kind that resubmits one fixed body verbatim, so
	// every submission after the first is served from the dedup cache.
	hit bool
}

func (k kind) String() string {
	s := fmt.Sprintf("%s/%s", k.circuit, k.engine)
	if k.lanes > 0 {
		s += fmt.Sprintf("/l%d", k.lanes)
	}
	s += fmt.Sprintf("/p%d", k.workers)
	if k.hit {
		s += "/hit"
	}
	return s
}

// levelized reports whether the kind runs one of the three unit-delay
// levelized engines, whose oracle is the compiled engine at one worker.
func (k kind) levelized() bool {
	return k.engine == "compiled" || k.engine == "vector" || k.engine == "jit"
}

// deterministic reports whether the kind's evaluation count repeats
// exactly; the asynchronous algorithm's activations depend on how its
// workers interleave once there are two of them.
func (k kind) deterministic() bool {
	return !(k.engine == "asynchronous" && k.workers > 1)
}

type workload struct {
	name    string
	why     string
	clients int // daemon workloads: closed-loop HTTP clients; 0 = library calls
	kinds   []kind
}

const (
	multGate = "mult16-gate"
	multFunc = "mult16-func"
	invArray = "inverter-array"
	micro    = "microprocessor"
)

var paperCircuits = []string{multGate, multFunc, invArray, micro}

func levelizedKinds(workers int) []kind {
	var ks []kind
	for _, c := range []string{multGate, micro} {
		ks = append(ks,
			kind{circuit: c, engine: "compiled", workers: workers},
			kind{circuit: c, engine: "vector", lanes: 64, workers: workers},
			kind{circuit: c, engine: "vector", lanes: 256, workers: workers},
			kind{circuit: c, engine: "jit", lanes: 1, workers: workers},
			kind{circuit: c, engine: "jit", lanes: 256, workers: workers},
		)
	}
	return ks
}

func paperKinds() []kind {
	var ks []kind
	for _, c := range []string{multGate, invArray, micro} {
		ks = append(ks,
			kind{circuit: c, engine: "sequential", workers: 1},
			kind{circuit: c, engine: "event-driven", workers: 1},
			kind{circuit: c, engine: "asynchronous", workers: 1},
			kind{circuit: c, engine: "event-driven", workers: 2},
			kind{circuit: c, engine: "asynchronous", workers: 2},
		)
	}
	return ks
}

func daemonKinds() []kind {
	var ks []kind
	for _, c := range []string{multGate, multFunc, invArray, micro} {
		ks = append(ks, kind{circuit: c, engine: "auto", workers: 1})
	}
	for _, c := range []string{multGate, micro} {
		ks = append(ks, kind{circuit: c, engine: "auto", workers: 1, hit: true})
	}
	return ks
}

// workloads is the benchmark's fixed workload list; BENCHMARK.json names
// the same four.
var workloads = []*workload{
	{
		name:  "levelized_p1",
		why:   "compiled, vector and jit at one worker: kernel cost of the levelized engines with no barrier crossed",
		kinds: levelizedKinds(1),
	},
	{
		name:  "levelized_p2",
		why:   "the same ten kinds at two workers: per-level barriers and partition stripes dominate instead of kernels",
		kinds: levelizedKinds(2),
	},
	{
		name:  "paper_async",
		why:   "the paper's sequential, event-driven and asynchronous algorithms; the levelized core and the daemon do nothing",
		kinds: paperKinds(),
	},
	{
		name:    "daemon_e2e",
		why:     "the user's whole path through parsimd over loopback HTTP: parse, key, clone, lint, auto-select, simulate, encode",
		clients: 2,
		kinds:   daemonKinds(),
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// paperCircuit is one of the paper's benchmark circuits at the horizon
// bench_test.go simulates it to, with the netlist text the daemon is sent
// and the oracles every job on it is checked against.
type paperCircuit struct {
	name    string
	c       *parsim.Circuit
	horizon parsim.Time
	// netlistBody is the netlist text after its "circuit <name>" line;
	// daemon submissions put their own name line in front of it.
	netlistBody string
	// seqFinal and compiledFinal are the node values at the horizon from
	// the sequential reference and from the compiled engine at one worker.
	seqFinal, compiledFinal []parsim.Value
}

func (pc *paperCircuit) netlist(name string) string {
	return "circuit " + name + "\n" + pc.netlistBody
}

// generate builds one of the paper's circuits at the paper's size.
func generate(name string) *parsim.Circuit {
	switch name {
	case multGate:
		return parsim.BenchGateMultiplier(parsim.DefaultMultiplier())
	case multFunc:
		return parsim.BenchFuncMultiplier(parsim.DefaultMultiplier())
	case invArray:
		return parsim.BenchInverterArray(parsim.DefaultInverterArray())
	}
	return parsim.BenchCPU(parsim.DefaultCPU())
}

// horizon is how far bench_test.go simulates each paper circuit.
func horizon(name string) parsim.Time {
	switch name {
	case multGate:
		return 512
	case multFunc:
		return 1024
	case invArray:
		return 128
	}
	return parsim.CPUHorizon(parsim.DefaultCPU(), 16)
}

// buildCircuits generates the four paper circuits, serialises them and
// computes their oracles.
func buildCircuits() (map[string]*paperCircuit, error) {
	out := make(map[string]*paperCircuit, len(paperCircuits))
	for _, name := range paperCircuits {
		pc := &paperCircuit{name: name, c: generate(name), horizon: horizon(name)}
		var buf bytes.Buffer
		if err := parsim.WriteNetlist(&buf, pc.c); err != nil {
			return nil, fmt.Errorf("serialise %s: %w", pc.name, err)
		}
		_, body, ok := strings.Cut(buf.String(), "\n")
		if !ok {
			return nil, fmt.Errorf("serialise %s: netlist has no circuit line", pc.name)
		}
		pc.netlistBody = body
		for _, ref := range []struct {
			engine string
			final  *[]parsim.Value
		}{{"sequential", &pc.seqFinal}, {"compiled", &pc.compiledFinal}} {
			res, err := parsim.Simulate(pc.c, parsim.Options{Engine: ref.engine, Workers: 1, Horizon: pc.horizon})
			if err != nil {
				return nil, fmt.Errorf("%s oracle for %s: %w", ref.engine, pc.name, err)
			}
			*ref.final = res.Final
		}
		out[pc.name] = pc
	}
	return out, nil
}

// counts are the run statistics of a kind that must repeat exactly.
type counts struct {
	evals, updates int64
}

// session is one set-up of a workload: its circuits, its daemon if it has
// one, and the per-kind counts recorded by the first warm-up round.
type session struct {
	w        *workload
	circuits map[string]*paperCircuit
	expect   []counts // indexed like w.kinds; zero until the first round
	daemon   *daemon
	// daemonRounds counts the rounds the current daemon has served.
	daemonRounds int
	// retired sums the counters of the daemons that were replaced, and
	// setUpCounters is what all daemons had counted when the set-up ended.
	retired, setUpCounters map[string]float64

	rng    *rand.Rand
	seed   int64
	serial int // makes the circuit name of every dedup-miss submission unique
}

// setUp builds the workload's inputs, boots its daemon and runs the warm-up
// rounds. The first of them pays every first-use cost (the LevelSchedule
// memo, jit lowering, HTTP connections) and records the counts later rounds
// must repeat, so a set-up ends when the workload is ready to be timed.
func setUp(w *workload, seed int64, warmup int) (*session, error) {
	circuits, err := buildCircuits()
	if err != nil {
		return nil, err
	}
	s := &session{
		w:        w,
		circuits: circuits,
		expect:   make([]counts, len(w.kinds)),
		rng:      rand.New(rand.NewSource(seed)),
		seed:     seed,
		retired:  map[string]float64{},
	}
	if w.clients > 0 {
		if s.daemon, err = startDaemon(); err != nil {
			return nil, err
		}
	}
	if err := s.warmUp(warmup); err != nil {
		s.close()
		return nil, err
	}
	if s.daemon != nil {
		// The first round's hit kinds miss once; later rounds never do.
		if s.setUpCounters, err = s.counters(); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// warmUp runs untimed rounds; a job that fails in one ends the run.
func (s *session) warmUp(rounds int) error {
	for i := 0; i < rounds; i++ {
		r, err := s.runRound(nil)
		if err != nil {
			return err
		}
		if r.failed() > 0 {
			return fmt.Errorf("untimed round of %s: %s", s.w.name, r.firstFailure())
		}
	}
	return nil
}

func (s *session) close() {
	if s.daemon != nil {
		s.daemon.stop()
	}
}

// simulate runs one library job through the facade, the call a user of the
// package makes. With a tracer it records the job, the call, and inside the
// call the wall the engine itself reported, so the call's self time is what
// the engine layer adds around the engine.
func (s *session) simulate(ki int, tr *tracer) outcome {
	k := s.w.kinds[ki]
	pc := s.circuits[k.circuit]
	opts := parsim.Options{Engine: k.engine, Workers: k.workers, Lanes: k.lanes, Horizon: pc.horizon}
	o := outcome{kind: ki, start: time.Now()}
	o.res, o.err = parsim.SimulateContext(context.Background(), pc.c, opts)
	o.end = time.Now()
	if tr != nil {
		job := tr.newJob()
		root := tr.add(0, job, "job", o.start, o.end, nil)
		tr.detail(root, k.String())
		call := tr.add(root, job, "simulate", o.start, o.end, nil)
		if o.res != nil {
			st := &o.res.Stats
			tr.add(call, job, "engine.wall", o.end.Add(-st.Wall), o.end, map[string]float64{
				"evals": float64(st.Evals), "events_used": float64(st.EventsUsed),
				"node_updates": float64(st.NodeUpdates), "workers": float64(st.Workers),
			})
		}
	}
	return o
}

// verify checks one finished job against its circuit's oracle and against
// the counts its kind recorded in the first round. It returns the reason
// the job counts as failed, or "".
func (s *session) verify(ki int, res *parsim.Result, err error) string {
	k := s.w.kinds[ki]
	if err != nil {
		return fmt.Sprintf("%v: %v", k, err)
	}
	if res == nil {
		return fmt.Sprintf("%v: no result", k)
	}
	pc := s.circuits[k.circuit]
	oracle, oracleName := pc.seqFinal, "sequential"
	if k.levelized() {
		oracle, oracleName = pc.compiledFinal, "compiled"
	}
	if len(res.Final) != len(oracle) {
		return fmt.Sprintf("%v: %d final values, %s oracle has %d", k, len(res.Final), oracleName, len(oracle))
	}
	for n := range oracle {
		if res.Final[n] != oracle[n] {
			return fmt.Sprintf("%v: node %s ends at %v, %s oracle at %v",
				k, pc.c.Nodes[n].Name, res.Final[n], oracleName, oracle[n])
		}
	}
	got := counts{evals: res.Stats.Evals, updates: res.Stats.NodeUpdates}
	if !k.deterministic() {
		got.evals = 0
	}
	if s.expect[ki] == (counts{}) {
		s.expect[ki] = got
	} else if got != s.expect[ki] {
		return fmt.Sprintf("%v: evals/updates %+v, first round recorded %+v", k, got, s.expect[ki])
	}
	return ""
}

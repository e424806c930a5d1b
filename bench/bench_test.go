package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMain lets the test binary stand in for the benchmark's own when a run
// under test starts a child process.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(processStart, os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var mf manifest
	if err := json.Unmarshal(data, &mf); err != nil {
		t.Fatal(err)
	}
	return mf
}

// runBench runs the benchmark in process with the smallest sizes that still
// execute every kind, and returns what it printed and its last line decoded.
func runBench(t *testing.T, args ...string) (string, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "--rounds", "1", "--warmup", "1", "--out", t.TempDir())
	if code := run(time.Now(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v exited %d\n%s%s", args, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line of output is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("bench %v: correct=%v attempted=%d failed=%d", args, res.Correct, res.Attempted, res.Failed)
	}
	return stdout.String(), res
}

// checkMetrics asserts that a run printed exactly the manifest's metrics,
// each by name with its unit on a line of its own and in the result object.
func checkMetrics(t *testing.T, out string, res result, want []manifestMetric) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("result object has %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s missing from the result object", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
		line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.Name) + `\s+\S+ ` + regexp.QuoteMeta(m.Unit) + `$`)
		if !line.MatchString(out) {
			t.Errorf("metric %s is not printed by name with unit %s", m.Name, m.Unit)
		}
	}
}

// TestManifestMatchesProgram pins BENCHMARK.json to the tables the program
// prints from, and every name and unit to the characters the contract
// allows.
func TestManifestMatchesProgram(t *testing.T) {
	mf := loadManifest(t)
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(mf.Workloads), len(workloads))
	}
	for i, w := range mf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: name or why outside the contract", w.Name)
		}
	}
	for _, pair := range []struct {
		manifest []manifestMetric
		program  []metricDef
	}{{mf.EndToEnd, endToEnd}, {mf.PerLayer, perLayer}} {
		if len(pair.manifest) != len(pair.program) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(pair.manifest), len(pair.program))
		}
		for i, m := range pair.manifest {
			if m.Name != pair.program[i].name || m.Unit != pair.program[i].unit {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					i, m.Name, m.Unit, pair.program[i].name, pair.program[i].unit)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %s [%s]: name or unit outside the contract", m.Name, m.Unit)
			}
		}
	}
}

// TestUntracedSmoke runs one round of every workload and checks that every
// end-to-end metric comes out, positive, with no failed job.
func TestUntracedSmoke(t *testing.T) {
	mf := loadManifest(t)
	for _, w := range mf.Workloads {
		out, res := runBench(t, "--workload", w.Name, "--trace", "0")
		checkMetrics(t, out, res, mf.EndToEnd)
		for name, m := range res.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %v, want a positive measurement", w.Name, name, m.Value)
			}
		}
	}
}

// TestTracedSmoke runs the traced run once (it executes every workload's
// kinds whichever one is asked for) and checks every per-layer metric and
// the span file.
func TestTracedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced run sets up all four workloads")
	}
	mf := loadManifest(t)
	out, res := runBench(t, "--workload", "daemon_e2e", "--trace", "1")
	checkMetrics(t, out, res, mf.PerLayer)

	path := regexp.MustCompile(`file=(\S+)`).FindStringSubmatch(out)
	if path == nil {
		t.Fatal("the traced run did not say where it wrote its spans")
	}
	if filepath.Base(path[1]) != "trace-daemon_e2e.json" {
		t.Errorf("span file is %s, want trace-daemon_e2e.json", path[1])
	}
	data, err := os.ReadFile(path[1])
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("span file: %v", err)
	}
	if tf.Workload != "daemon_e2e" || len(tf.Spans) == 0 || len(tf.Layers) == 0 || tf.Host.GoVersion == "" {
		t.Fatalf("span file lacks its workload, spans, layer totals or host stamp")
	}
	names := map[string]bool{}
	for i, sp := range tf.Spans {
		names[sp.Name] = true
		if sp.ID != i+1 || sp.Parent < 0 || sp.Parent >= sp.ID && sp.Parent != 0 {
			t.Fatalf("span %d: id %d, parent %d", i, sp.ID, sp.Parent)
		}
		if sp.Job == 0 || sp.EndUS < sp.StartUS || sp.SelfUS < -1e-6 || sp.SelfUS > sp.EndUS-sp.StartUS+1e-6 {
			t.Errorf("span %d (%s): job %d, [%v, %v], self %v", sp.ID, sp.Name, sp.Job, sp.StartUS, sp.EndUS, sp.SelfUS)
		}
		if sp.Parent != 0 && tf.Spans[sp.Parent-1].Job != sp.Job {
			t.Errorf("span %d (%s) and its parent belong to different jobs", sp.ID, sp.Name)
		}
	}
	for _, want := range []string{"job", "simulate", "engine.wall", "post", "poll_wait", "probe", "replay",
		"netlist.read", "circuit.clone", "analyze.lint", "auto.choose", "cluster.key", "report.encode"} {
		if !names[want] {
			t.Errorf("no %q span in the file", want)
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// manifest is the part of BENCHMARK.json the self-check and the smoke test
// read.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"` // end-to-end metrics only
}

// childEnv marks a process as a child of the benchmark. The smoke test's
// binary, which is what os.Executable names under go test, reads it to run
// the benchmark instead of its tests.
const childEnv = "PARSIM_BENCH_CHILD"

// runChild runs one workload untraced in a process of its own, as the
// driver does, and returns the result on its last line of output.
func runChild(cfg config, w *workload, echo io.Writer, extra ...string) (result, error) {
	var res result
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, append([]string{
		"--workload", w.name, "--trace", "0",
		"--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"--rounds", strconv.Itoa(cfg.rounds),
		"--warmup", strconv.Itoa(cfg.warmup),
	}, extra...)...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdout = io.MultiWriter(&out, echo)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("workload %s: %w", w.name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("workload %s: last line of output: %w", w.name, err)
	}
	return res, nil
}

// runChildren runs every workload untraced, one process each. With
// selfcheck it runs each twice, back to back, and fails if any end-to-end
// metric differs between the two by more than its bound in BENCHMARK.json:
// the benchmark checking that it repeats on this host.
func runChildren(cfg config, selfcheck bool, stdout, stderr io.Writer) int {
	if !selfcheck {
		for _, w := range workloads {
			if _, err := runChild(cfg, w, stdout); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
		return 0
	}

	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "bench: -selfcheck runs from the root of the repository: %v\n", err)
		return 1
	}
	var mf manifest
	if err := json.Unmarshal(data, &mf); err != nil {
		fmt.Fprintf(stderr, "bench: BENCHMARK.json: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "parsim bench selfcheck seed=%d %v\n", cfg.seed, stampHost())
	fmt.Fprintf(stdout, "%-14s %-18s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	status := 0
	for _, w := range workloads {
		var runs [2]result
		for i := range runs {
			if runs[i], err = runChild(cfg, w, io.Discard); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
		for _, e := range mf.EndToEnd {
			a, b := runs[0].Metrics[e.Name].Value, runs[1].Metrics[e.Name].Value
			diff := math.Abs(b-a) / a
			verdict := ""
			if !(diff <= e.Bound) {
				verdict = "  OUTSIDE BOUND"
				status = 1
			}
			fmt.Fprintf(stdout, "%-14s %-18s %14.6g %14.6g %8.2f%% %6.0f%%%s\n",
				w.name, e.Name, a, b, 100*diff, 100*e.Bound, verdict)
		}
	}
	return status
}

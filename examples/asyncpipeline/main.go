// Async pipeline: how the asynchronous algorithm adapts its behaviour to
// circuit shape, reproducing section 4's narrative with live counters.
//
//   - Feed-forward circuits with plentiful stimulus let every activation
//     consume long runs of queued events ("concurrent" execution — huge
//     effective problem size).
//   - Small circuits and feedback rings force one-event-at-a-time progress:
//     the processors "pipeline" the evaluation instead, and per-event
//     scheduling overhead rises.
//
// The events-consumed-per-evaluation ratio makes the regime visible.
package main

import (
	"fmt"
	"log"

	"parsim"
)

func main() {
	type workload struct {
		name    string
		c       *parsim.Circuit
		horizon parsim.Time
		expect  string
	}

	mult := parsim.DefaultMultiplier()
	workloads := []workload{
		{
			"inverter array (feed-forward, busy)",
			parsim.BenchInverterArray(parsim.DefaultInverterArray()),
			512,
			"many events per eval: batched, concurrent execution",
		},
		{
			"gate multiplier (feed-forward, bursty)",
			parsim.BenchGateMultiplier(mult),
			mult.InPeriod * 4,
			"bursty: activations chase fresh events through the array",
		},
		{
			"functional multiplier (small, 100 elements)",
			parsim.BenchFuncMultiplier(mult),
			mult.InPeriod * 4,
			"few elements: parallelism only from pipelining",
		},
		{
			"feedback chain (worst case)",
			parsim.BenchFeedbackChain(31),
			2000,
			"serial: one event at a time around the loop",
		},
	}

	fmt.Printf("%-44s %10s %10s %8s\n", "workload", "evals", "events", "ev/eval")
	for _, w := range workloads {
		res, err := parsim.Simulate(w.c, parsim.Options{
			Engine: parsim.Async, Workers: 2, Horizon: w.horizon,
		})
		if err != nil {
			log.Fatal(err)
		}
		ratio := float64(res.Stats.EventsUsed) / float64(res.Stats.Evals)
		fmt.Printf("%-44s %10d %10d %8.1f   <- %s\n",
			w.name, res.Stats.Evals, res.Stats.EventsUsed, ratio, w.expect)
	}

	fmt.Println("\nthe algorithm 'adjusts to execute the events concurrently or")
	fmt.Println("pipelined as needed' (paper, section 4) — no mode switch required")
}

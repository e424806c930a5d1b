// Baselines: the paper's asynchronous algorithm against the two rival
// asynchronous disciplines from its related-work section, plus the
// distributed-memory port — all producing identical results, with wildly
// different overheads.
//
//   - Async (the paper): consume only known-valid events; valid-times
//     advance incrementally, so no rollbacks and no deadlocks.
//   - TimeWarp (Arnold/Jefferson): execute speculatively, save state, roll
//     back on stragglers, cancel with anti-messages.
//   - ChandyMisra (1981): valid-times frozen; run to deadlock, update all
//     clock values globally, restart.
//   - DistAsync: the paper's algorithm over message passing (future work).
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
	}
	mult := parsim.DefaultMultiplier()
	workloads := []workload{
		{"inverter-array", parsim.BenchInverterArray(parsim.DefaultInverterArray()), 192},
		{"mult16-gate", parsim.BenchGateMultiplier(mult), mult.InPeriod * 2},
		{"feedback-chain-31", parsim.BenchFeedbackChain(31), 1200},
	}

	algs := []parsim.Algorithm{
		parsim.Async, parsim.TimeWarp, parsim.ChandyMisra, parsim.DistAsync,
	}
	const workers = 4

	for _, w := range workloads {
		fmt.Printf("\n%s (P=%d, horizon %d):\n", w.name, workers, w.horizon)
		var ref *parsim.Recorder
		for _, alg := range algs {
			rec := parsim.NewRecorder()
			res, err := parsim.Simulate(w.c, parsim.Options{
				Engine: alg, Workers: workers, Horizon: w.horizon, Probe: rec,
			})
			if err != nil {
				log.Fatal(err)
			}
			if ref == nil {
				ref = rec
			} else if d := parsim.HistoryDiff(w.c, ref, rec); d != "" {
				log.Fatalf("%v produced different results: %s", alg, d)
			}
			extra := ""
			tot := res.Stats.Totals()
			switch alg {
			case parsim.TimeWarp:
				extra = fmt.Sprintf("  rollbacks=%d anti-msgs=%d peak-saved=%d",
					tot.Rollbacks, tot.Cancelled, res.PeakLog)
			case parsim.ChandyMisra:
				extra = fmt.Sprintf("  deadlocks-broken=%d", res.Rounds-1)
			case parsim.DistAsync:
				extra = fmt.Sprintf("  messages=%d", tot.Messages)
			}
			fmt.Printf("  %-18v %8d events %10d evals  %8v%s\n",
				alg, res.Stats.NodeUpdates, res.Stats.Evals,
				res.Stats.Wall.Round(1e5), extra)
		}
	}
	fmt.Println("\nidentical histories everywhere; only the machinery differs —")
	fmt.Println("the paper's algorithm needs no rollbacks, no saved state and no")
	fmt.Println("deadlock recovery because it advances valid-times incrementally")
}

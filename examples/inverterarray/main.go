// Inverter array: the paper's control experiment, at real-thread scale.
//
// Sweeps worker counts over the 32x16 inverter array for the event-driven
// and asynchronous algorithms and prints measured wall-clock speed-ups and
// utilisations — the live version of the paper's Figures 1, 2 and 5. Run
// `go run ./cmd/figures -mode model` for the full 1-16 processor curves on
// the virtual Multimax.
package main

import (
	"fmt"
	"log"
	"runtime"

	"parsim"
)

func main() {
	c := parsim.BenchInverterArray(parsim.DefaultInverterArray())
	fmt.Println(c)

	const horizon = 256
	const spin = 300 // synthetic per-evaluation work, like interpreted models
	maxP := runtime.NumCPU()

	run := func(alg parsim.Algorithm, p int) *parsim.Result {
		res, err := parsim.Simulate(c, parsim.Options{
			Engine: alg, Workers: p, Horizon: horizon, CostSpin: spin,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	fmt.Printf("\n%-6s %-28s %-28s\n", "P", "event-driven", "asynchronous")
	var edBase, asBase float64
	for p := 1; p <= maxP; p++ {
		// Best of three to tame scheduler noise.
		best := func(alg parsim.Algorithm) *parsim.Result {
			r := run(alg, p)
			for i := 0; i < 2; i++ {
				if r2 := run(alg, p); r2.Stats.Wall < r.Stats.Wall {
					r = r2
				}
			}
			return r
		}
		ed := best(parsim.EventDriven)
		as := best(parsim.Async)
		if p == 1 {
			edBase = float64(ed.Stats.Wall)
			asBase = float64(as.Stats.Wall)
		}
		fmt.Printf("%-6d %8v %5.2fx %4.0f%%util %8v %5.2fx %4.0f%%util\n",
			p,
			ed.Stats.Wall.Round(1e5), edBase/float64(ed.Stats.Wall), 100*ed.Stats.Utilization(),
			as.Stats.Wall.Round(1e5), asBase/float64(as.Stats.Wall), 100*as.Stats.Utilization())
	}

	// The events-per-tick knob from Figure 2: fewer active rows, fewer
	// events available, worse event-driven scaling.
	fmt.Println("\nevent availability (Fig. 2 knob):")
	for _, active := range []int{32, 16, 8, 4} {
		cfg := parsim.DefaultInverterArray()
		cfg.ActiveRows = active
		arr := parsim.BenchInverterArray(cfg)
		res, err := parsim.Simulate(arr, parsim.Options{
			Engine: parsim.Sequential, Horizon: horizon,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %2d active rows: %6.0f events/tick\n",
			active, float64(res.Stats.NodeUpdates)/float64(horizon))
	}
	fmt.Println("\npaper: async reached 91% utilisation at 8 processors here,")
	fmt.Println("vs 68% at 16 for async and 10-20% less for event-driven")
}

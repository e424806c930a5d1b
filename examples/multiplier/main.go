// Multiplier: the paper's flagship workload at two representation levels.
//
// The same 16-bit multiplication is simulated as ~2400 two-input gates and
// as ~140 functional blocks (3-bit multipliers, adders, bus glue). Both are
// checked against native integer multiplication, and the example contrasts
// how the asynchronous algorithm behaves on each: the big gate circuit
// keeps every worker busy, while the small functional circuit pipelines
// (few events per evaluation), exactly as the paper reports.
package main

import (
	"fmt"
	"log"
	"runtime"

	"parsim"
)

func main() {
	cfg := parsim.DefaultMultiplier()
	gate := parsim.BenchGateMultiplier(cfg)
	fn := parsim.BenchFuncMultiplier(cfg)
	fmt.Println(gate)
	fmt.Println(fn)

	const periods = 6
	horizon := cfg.InPeriod * periods

	for _, c := range []*parsim.Circuit{gate, fn} {
		rec := parsim.NewRecorderFor(c.Node("p").ID)
		res, err := parsim.Simulate(c, parsim.Options{
			Engine:  parsim.Async,
			Workers: runtime.NumCPU(),
			Horizon: horizon,
			Probe:   rec,
		})
		if err != nil {
			log.Fatal(err)
		}

		// Sample the product at the end of each stimulus period, when the
		// longest carry chain has settled, and verify against int math.
		agen := &c.Elems[c.ElByName["agen"]]
		bgen := &c.Elems[c.ElByName["bgen"]]
		ok := 0
		for k := 0; k < periods; k++ {
			at := parsim.Time(k+1)*cfg.InPeriod - 1
			a := agen.GenValueAt(at).MustUint()
			bv := bgen.GenValueAt(at).MustUint()
			got := rec.ValueAt(c, c.Node("p").ID, at)
			want := (a * bv) & 0xffffffff
			u, known := got.Uint()
			if !known || u != want {
				log.Fatalf("%s: %d * %d = %v, want %d", c.Name, a, bv, got, want)
			}
			ok++
		}
		perEval := float64(res.Stats.EventsUsed) / float64(res.Stats.Evals)
		fmt.Printf("%-14s %d products verified; %d evals, %.1f events consumed per evaluation\n",
			c.Name+":", ok, res.Stats.Evals, perEval)
	}

	fmt.Println("\nthe gate-level representation spreads the work over thousands of")
	fmt.Println("cheap elements; the functional one concentrates it in ~150 blocks,")
	fmt.Println("so beyond a few processors it can only pipeline — the effect behind")
	fmt.Println("the paper's poor functional-level speed-ups at 15 processors")
}

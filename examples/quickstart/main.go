// Quickstart: build a small sequential circuit with the Builder, simulate
// it with the asynchronous algorithm, and inspect the waveform.
//
// The circuit is a 4-bit ripple counter: a clock drives a chain of toggle
// flip-flops (DFFR with the data input fed from the inverted output).
package main

import (
	"fmt"
	"log"
	"os"
	"runtime"

	"parsim"
)

func main() {
	b := parsim.NewBuilder("ripple-counter")

	clk := b.Bit("clk")
	rst := b.Bit("rst")
	b.Clock("clkgen", clk, 20, 10, 0) // rising edges at t = 10, 30, 50, ...
	b.Wave("rstgen", rst,
		[]parsim.Time{0, 5},
		[]parsim.Value{parsim.V(1, 1), parsim.V(1, 0)}) // reset pulse

	// Each stage toggles on the falling edge of the previous stage; the
	// inverted output provides both the toggle data and the next clock.
	prevClk := clk
	for i := 0; i < 4; i++ {
		q := b.Bit(fmt.Sprintf("q%d", i))
		nq := b.Bit(fmt.Sprintf("nq%d", i))
		b.AddElement(parsim.DFFR, fmt.Sprintf("ff%d", i), 1,
			[]parsim.NodeID{q}, []parsim.NodeID{prevClk, rst, nq},
			parsim.Params{Init: parsim.V(1, 0)})
		b.Gate(parsim.Not, fmt.Sprintf("inv%d", i), 1, nq, q)
		prevClk = nq
	}

	c, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(c)

	// Record every node and simulate with the lock-free asynchronous
	// algorithm on all available cores.
	rec := parsim.NewRecorder()
	const horizon = 400
	res, err := parsim.Simulate(c, parsim.Options{
		Engine:  parsim.Async,
		Workers: runtime.NumCPU(),
		Horizon: horizon,
		Probe:   rec,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Stats.String())

	// The counter value is spread across the four q bits.
	fmt.Println("\ncount waveform (sampled every 20 ticks):")
	for t := parsim.Time(0); t < horizon; t += 20 {
		v := 0
		known := true
		for i := 0; i < 4; i++ {
			bit := rec.ValueAt(c, c.Node(fmt.Sprintf("q%d", i)).ID, t)
			u, ok := bit.Uint()
			if !ok {
				known = false
				break
			}
			v |= int(u) << i
		}
		if known {
			fmt.Printf("  t=%3d  count=%2d\n", t, v)
		} else {
			fmt.Printf("  t=%3d  count=x\n", t)
		}
	}

	// Dump a VCD for waveform viewers.
	f, err := os.Create("counter.vcd")
	if err != nil {
		log.Fatal(err)
	}
	if err := parsim.WriteVCD(f, c, rec, horizon); err != nil {
		log.Fatal(err)
	}
	// The write isn't durable until the file closes cleanly.
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwrote counter.vcd")
}

// Microprocessor: assemble a program, run it on the gate-level pipelined
// CPU under all four simulation algorithms, and verify the architectural
// state against the reference instruction-set simulator.
//
// The program computes gcd(91, 63) = 7 by repeated subtraction, using the
// CPU's branch-with-delay-slot semantics.
package main

import (
	"fmt"
	"log"
	"runtime"

	"parsim"
)

func main() {
	// Build the real program: subtraction loop with an unsigned compare via
	// LtU is not in the ISA, so use the classic trick: keep subtracting the
	// smaller register from the larger by swapping.
	prog := []uint16{
		parsim.AsmLI(1, 91), // 0: a
		parsim.AsmLI(2, 63), // 1: b
		// loop @2: while b != 0 { t = a mod-ish: if a < b swap; a = a - b }
		// Simplified Euclid by subtraction with swap-free form:
		// r3 = a - b; if high bit set (a < b), swap instead.
		parsim.AsmSUB(3, 1, 2), // 2
		parsim.AsmBNEZ(3, 1),   // 3: if a != b continue at 6
		parsim.AsmNOP(),        // 4: delay slot
		parsim.AsmJMP(20),      // 5: equal -> done
		// @6: r4 = sign bit of r3 (shift right 15 by repeated ADD? use AND
		// with 0x8000 loaded once in r5)
		parsim.AsmAND(4, 3, 5), // 6: r4 = r3 & 0x8000
		parsim.AsmBNEZ(4, 3),   // 7: if a < b, swap -> 12
		parsim.AsmNOP(),        // 8: delay slot
		parsim.AsmOR(1, 3, 0),  // 9: a >= b: a = a - b
		parsim.AsmJMP(2),       // 10: loop
		parsim.AsmNOP(),        // 11: delay slot
		parsim.AsmOR(6, 1, 0),  // 12: swap a and b
		parsim.AsmOR(1, 2, 0),  // 13
		parsim.AsmOR(2, 6, 0),  // 14
		parsim.AsmJMP(2),       // 15: loop
		parsim.AsmNOP(),        // 16: delay slot
		parsim.AsmNOP(),        // 17
		parsim.AsmNOP(),        // 18
		parsim.AsmNOP(),        // 19
		parsim.AsmJMP(20),      // 20: spin
		parsim.AsmNOP(),        // 21: delay slot
	}
	// r5 = 0x8000 must be set before the loop: LI only loads 8 bits, so
	// build it with a shift... the ISA has no variable shift; load 0x80 and
	// ADD it to itself 8 times at the start.
	setup := []uint16{
		parsim.AsmLI(5, 0x80),
	}
	for i := 0; i < 8; i++ {
		setup = append(setup, parsim.AsmADD(5, 5, 5))
	}
	program := append(setup, offsetJumps(prog, uint8(len(setup)))...)

	cfg := parsim.CPUConfig{Program: program, ClockPeriod: 96}
	c := parsim.BenchCPU(cfg)
	fmt.Println(c)

	const cycles = 400
	horizon := parsim.CPUHorizon(cfg, cycles)

	iss := parsim.NewISS(program)
	iss.Run(cycles)
	fmt.Printf("ISS after %d cycles: gcd(91,63) -> r1 = %d (want 7)\n", cycles, iss.Reg[1])

	for _, alg := range []parsim.Algorithm{
		parsim.Sequential, parsim.EventDriven, parsim.Async,
	} {
		opts := parsim.Options{Engine: alg, Horizon: horizon, Workers: runtime.NumCPU()}
		if alg == parsim.Sequential {
			opts.Workers = 1
		}
		res, err := parsim.Simulate(c, opts)
		if err != nil {
			log.Fatal(err)
		}
		r1, ok := parsim.CPURegValue(c, res.Final, 1)
		if !ok || r1 != iss.Reg[1] {
			log.Fatalf("%v: r1 = %d (ok=%v), ISS says %d", alg, r1, ok, iss.Reg[1])
		}
		fmt.Printf("%-13v r1 = %d, %s\n", alg, r1, res.Stats.String())
	}
	fmt.Println("\ngate-level pipeline and ISS agree across all algorithms")
}

// offsetJumps shifts the absolute control-flow targets of a program that is
// moved by `base` instructions (JMP targets and nothing else — BNEZ is
// relative).
func offsetJumps(prog []uint16, base uint8) []uint16 {
	out := make([]uint16, len(prog))
	for i, ins := range prog {
		if ins>>12 == 9 { // JMP
			out[i] = parsim.AsmJMP(uint8(ins&0xff) + base)
		} else {
			out[i] = ins
		}
	}
	return out
}

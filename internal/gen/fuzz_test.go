package gen

import (
	"math/rand"
	"testing"

	_ "parsim/internal/core"
	"parsim/internal/engine"
)

// randomProgram builds a random but well-defined program: registers are
// seeded first, memory is written before it is read (through the stable
// address register r8), and control flow only branches forward into the
// program before falling into a terminal spin — so any execution reaches a
// steady state within 2*len cycles.
func randomProgram(r *rand.Rand, bodyLen int) []uint16 {
	var prog []uint16
	// Seed registers r1..r7 and the memory cell at MEM[r8].
	for reg := 1; reg <= 7; reg++ {
		prog = append(prog, LI(reg, uint8(r.Intn(256))))
	}
	prog = append(prog, LI(8, uint8(64+r.Intn(64))))
	prog = append(prog, SW(8, 1+r.Intn(7)))

	// rd avoids r8 so loads always hit initialised memory.
	randRD := func() int {
		rd := 1 + r.Intn(11)
		if rd >= 8 {
			rd++
		}
		return rd
	}
	randRS := func() int { return r.Intn(13) }

	for len(prog) < bodyLen {
		switch r.Intn(12) {
		case 0:
			prog = append(prog, LI(randRD(), uint8(r.Intn(256))))
		case 1:
			prog = append(prog, ADDI(randRD(), randRS(), uint8(r.Intn(16))))
		case 2:
			prog = append(prog, SW(8, randRS()))
		case 3:
			prog = append(prog, LW(randRD(), 8))
		case 4:
			// Forward conditional branch with its delay slot; the target
			// stays inside the body because the spin comes after.
			off := int8(r.Intn(6))
			prog = append(prog, BNEZ(randRS(), off), NOP())
		default:
			ops := []func(rd, rs, rt int) uint16{ADD, SUB, AND, OR, XOR}
			prog = append(prog, ops[r.Intn(len(ops))](randRD(), randRS(), randRS()))
		}
	}
	spin := uint8(len(prog))
	prog = append(prog, JMP(spin), NOP())
	return prog
}

func TestRandomProgramsAgainstISS(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		prog := randomProgram(r, 28)
		cycles := 2*len(prog) + 8

		iss := NewISS(prog)
		iss.Run(cycles)

		cfg := CPUConfig{Program: prog, ClockPeriod: 96}
		c := CPU(cfg)
		res := simulate(t, "sequential", c, engine.Config{Horizon: CPUHorizon(cfg, cycles)})
		for reg := 0; reg < 16; reg++ {
			got, ok := CPURegValue(c, res.Final, reg)
			if !ok {
				t.Errorf("seed %d: r%d has unknown bits", seed, reg)
				continue
			}
			if got != iss.Reg[reg] {
				t.Errorf("seed %d: r%d = %d, ISS has %d", seed, reg, got, iss.Reg[reg])
			}
		}
	}
}

func TestRandomProgramOnAsync(t *testing.T) {
	// One random program through the lock-free simulator, for the full
	// program-level end-to-end path.
	r := rand.New(rand.NewSource(99))
	prog := randomProgram(r, 24)
	cycles := 2*len(prog) + 8

	iss := NewISS(prog)
	iss.Run(cycles)

	cfg := CPUConfig{Program: prog, ClockPeriod: 96}
	c := CPU(cfg)
	res := simulate(t, "asynchronous", c, engine.Config{Workers: 2, Horizon: CPUHorizon(cfg, cycles)})
	for reg := 0; reg < 16; reg++ {
		got, ok := CPURegValue(c, res.Final, reg)
		if !ok || got != iss.Reg[reg] {
			t.Errorf("r%d = %d (ok=%v), ISS has %d", reg, got, ok, iss.Reg[reg])
		}
	}
}

// TestEveryInstructionAgainstISS exercises each opcode in a minimal
// program, comparing gate-level execution with the ISS.
func TestEveryInstructionAgainstISS(t *testing.T) {
	programs := map[string][]uint16{
		"li":             {LI(1, 200)},
		"add":            {LI(1, 200), LI(2, 100), ADD(3, 1, 2)},
		"sub":            {LI(1, 5), LI(2, 9), SUB(3, 1, 2)}, // wraps negative
		"and":            {LI(1, 0xcc), LI(2, 0xaa), AND(3, 1, 2)},
		"or":             {LI(1, 0xcc), LI(2, 0xaa), OR(3, 1, 2)},
		"xor":            {LI(1, 0xcc), LI(2, 0xaa), XOR(3, 1, 2)},
		"addi":           {LI(1, 250), ADDI(3, 1, 15)},
		"bnez-taken":     {LI(1, 1), BNEZ(1, 1), LI(2, 7), LI(3, 9), LI(4, 5)},
		"bnez-not-taken": {BNEZ(1, 1), LI(2, 7), LI(3, 9), LI(4, 5)},
		"jmp":            {JMP(3), LI(2, 7), LI(3, 9), LI(4, 5)},
		"swlw":           {LI(1, 40), LI(2, 123), SW(1, 2), LW(3, 1)},
		"nop":            {NOP(), LI(1, 1)},
	}
	for name, body := range programs {
		prog := append(append([]uint16{}, body...),
			JMP(uint8(len(body))), NOP())
		cycles := len(prog) + 10
		iss := NewISS(prog)
		iss.Run(cycles)
		cfg := CPUConfig{Program: prog, ClockPeriod: 96}
		c := CPU(cfg)
		res := simulate(t, "sequential", c, engine.Config{Horizon: CPUHorizon(cfg, cycles)})
		for reg := 0; reg < 16; reg++ {
			got, ok := CPURegValue(c, res.Final, reg)
			if !ok || got != iss.Reg[reg] {
				t.Errorf("%s: r%d = %d (ok=%v), ISS %d", name, reg, got, ok, iss.Reg[reg])
			}
		}
	}
}

package circuit_test

import (
	"testing"

	"parsim/internal/circuit"
	"parsim/internal/gen"
)

func TestUnitDelayDetector(t *testing.T) {
	if !gen.InverterArray(gen.DefaultInverterArray()).UnitDelay() {
		t.Error("inverter array must be unit-delay")
	}
	if gen.CPU(gen.DefaultCPU()).UnitDelay() {
		t.Error("CPU has ROM/RAM delay 2; not unit-delay")
	}
	b := circuit.NewBuilder("zero-delay")
	clk, mid, a := b.Bit("clk"), b.Bit("mid"), b.Bit("a")
	b.Clock("osc", clk, 4, 0, 0)
	b.Gate(circuit.KindNot, "inv0", 0, mid, clk)
	b.Gate(circuit.KindNot, "inv1", 1, a, mid)
	if b.MustBuild().UnitDelay() {
		t.Error("a delay-0 element is not unit-delay")
	}
}

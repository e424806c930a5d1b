package parsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"
)

// parityCase is one plane-core configuration whose observable results are
// pinned by digest.
type parityCase struct {
	name string
	c    func() *Circuit
	o    Options
}

// parityCases covers the benchmark's ten levelized kinds on mult16-gate and
// the microprocessor at the benchmark horizons, the inverter array,
// mult16-func and random unit-delay circuits, with and without a probe,
// and fault simulation — each at one and two workers.
func parityCases() []parityCase {
	mult := func() *Circuit { return BenchGateMultiplier(DefaultMultiplier()) }
	cpu := func() *Circuit { return BenchCPU(DefaultCPU()) }
	inv := func() *Circuit { return BenchInverterArray(DefaultInverterArray()) }
	mfunc := func() *Circuit { return BenchFuncMultiplier(DefaultMultiplier()) }
	cpuH := CPUHorizon(DefaultCPU(), 16)
	type kind struct {
		engine string
		lanes  int
	}
	levelized := []kind{{Compiled, 0}, {Vector, 64}, {Vector, 256}, {JIT, 1}, {JIT, 256}}
	var cs []parityCase
	add := func(name string, c func() *Circuit, o Options) {
		for p := 1; p <= 2; p++ {
			o.Workers = p
			cs = append(cs, parityCase{fmt.Sprintf("%s/p%d", name, p), c, o})
		}
	}
	for _, bc := range []struct {
		name string
		c    func() *Circuit
		h    Time
	}{{"mult16-gate", mult, 512}, {"microprocessor", cpu, cpuH}} {
		for _, k := range levelized {
			add(fmt.Sprintf("%s/%s/l%d", bc.name, k.engine, k.lanes), bc.c,
				Options{Engine: k.engine, Lanes: k.lanes, Horizon: bc.h})
		}
		add(bc.name+"/jit/l1/probe", bc.c, Options{Engine: JIT, Horizon: bc.h, Probe: NewRecorder()})
		add(bc.name+"/vector/l96/probe65", bc.c,
			Options{Engine: Vector, Lanes: 96, LaneStride: 3, ProbeLane: 65, Horizon: bc.h, Probe: NewRecorder()})
	}
	add("mult16-gate/faults", mult, Options{Engine: Vector, Lanes: 64, Horizon: 256,
		FaultSim: true, FaultStatuses: true, FaultMaxPasses: 3})
	add("microprocessor/faults", cpu, Options{Engine: JIT, Lanes: 128, Horizon: 400,
		FaultSim: true, FaultStatuses: true, FaultMaxPasses: 2})
	for _, oc := range []struct {
		name string
		c    func() *Circuit
		h    Time
	}{
		{"inverter-array", inv, 128},
		{"mult16-func", mfunc, 1024},
		{"random-3-60", func() *Circuit { return RandomUnitCircuit(3, 60) }, 300},
		{"random-7-80", func() *Circuit { return RandomUnitCircuit(7, 80) }, 300},
		{"random-11-48", func() *Circuit { return RandomUnitCircuit(11, 48) }, 300},
	} {
		add(oc.name+"/compiled/l0", oc.c, Options{Engine: Compiled, Horizon: oc.h})
		add(oc.name+"/compiled/l0/probe", oc.c, Options{Engine: Compiled, Horizon: oc.h, Probe: NewRecorder()})
		add(oc.name+"/jit/l1", oc.c, Options{Engine: JIT, Horizon: oc.h})
		add(oc.name+"/vector/l256", oc.c, Options{Engine: Vector, Lanes: 256, Horizon: oc.h})
		add(oc.name+"/jit/l1/probe", oc.c, Options{Engine: JIT, Horizon: oc.h, Probe: NewRecorder()})
		add(oc.name+"/vector/l96/probe65", oc.c,
			Options{Engine: Vector, Lanes: 96, LaneStride: 3, ProbeLane: 65, Horizon: oc.h, Probe: NewRecorder()})
		add(oc.name+"/faults", oc.c, Options{Engine: Vector, Lanes: 64, Horizon: oc.h,
			FaultSim: true, FaultStatuses: true, FaultMaxPasses: 3})
	}
	return cs
}

// parityDigests are the SHA-256 digests (truncated to 16 hex digits) of
// parityDigest for every parity case, recorded from the plane core's
// evaluate-everything step: the selective trace must not change a single
// observable value or update count.
var parityDigests = map[string]string{
	"mult16-gate/compiled/l0/p1":           "7dc602d41946916c",
	"mult16-gate/compiled/l0/p2":           "7dc602d41946916c",
	"mult16-gate/vector/l64/p1":            "2df36b87433463a7",
	"mult16-gate/vector/l64/p2":            "2df36b87433463a7",
	"mult16-gate/vector/l256/p1":           "d51d81eb5d86e208",
	"mult16-gate/vector/l256/p2":           "d51d81eb5d86e208",
	"mult16-gate/jit/l1/p1":                "d7e8fa41eae8340f",
	"mult16-gate/jit/l1/p2":                "d7e8fa41eae8340f",
	"mult16-gate/jit/l256/p1":              "d51d81eb5d86e208",
	"mult16-gate/jit/l256/p2":              "d51d81eb5d86e208",
	"mult16-gate/jit/l1/probe/p1":          "7e76a415b2ff83c7",
	"mult16-gate/jit/l1/probe/p2":          "7e76a415b2ff83c7",
	"mult16-gate/vector/l96/probe65/p1":    "a866486b028024cb",
	"mult16-gate/vector/l96/probe65/p2":    "a866486b028024cb",
	"microprocessor/compiled/l0/p1":        "f8ea5bc750ece7f9",
	"microprocessor/compiled/l0/p2":        "f8ea5bc750ece7f9",
	"microprocessor/vector/l64/p1":         "cb6a6f36f409ac77",
	"microprocessor/vector/l64/p2":         "cb6a6f36f409ac77",
	"microprocessor/vector/l256/p1":        "cd251f78ad7272ec",
	"microprocessor/vector/l256/p2":        "cd251f78ad7272ec",
	"microprocessor/jit/l1/p1":             "e72fc183bbeb85df",
	"microprocessor/jit/l1/p2":             "e72fc183bbeb85df",
	"microprocessor/jit/l256/p1":           "cd251f78ad7272ec",
	"microprocessor/jit/l256/p2":           "cd251f78ad7272ec",
	"microprocessor/jit/l1/probe/p1":       "513211f696ba782d",
	"microprocessor/jit/l1/probe/p2":       "513211f696ba782d",
	"microprocessor/vector/l96/probe65/p1": "ae1c236e4f41a148",
	"microprocessor/vector/l96/probe65/p2": "ae1c236e4f41a148",
	"mult16-gate/faults/p1":                "c03c10c9fbea7f10",
	"mult16-gate/faults/p2":                "c03c10c9fbea7f10",
	"microprocessor/faults/p1":             "54353ad6f52593dc",
	"microprocessor/faults/p2":             "54353ad6f52593dc",
	"inverter-array/compiled/l0/p1":        "e6f8a75337e15159",
	"inverter-array/compiled/l0/p2":        "e6f8a75337e15159",
	"inverter-array/compiled/l0/probe/p1":  "7d2b7c6dfdfcf89f",
	"inverter-array/compiled/l0/probe/p2":  "7d2b7c6dfdfcf89f",
	"inverter-array/jit/l1/p1":             "d0564f3574cca30e",
	"inverter-array/jit/l1/p2":             "d0564f3574cca30e",
	"inverter-array/vector/l256/p1":        "f0cdd181d5d2e75f",
	"inverter-array/vector/l256/p2":        "f0cdd181d5d2e75f",
	"inverter-array/jit/l1/probe/p1":       "9cee77964b2452f1",
	"inverter-array/jit/l1/probe/p2":       "9cee77964b2452f1",
	"inverter-array/vector/l96/probe65/p1": "532fa9a79ef50f8b",
	"inverter-array/vector/l96/probe65/p2": "532fa9a79ef50f8b",
	"inverter-array/faults/p1":             "1014d45a42cc8c91",
	"inverter-array/faults/p2":             "1014d45a42cc8c91",
	"mult16-func/compiled/l0/p1":           "0070f621710c7a8e",
	"mult16-func/compiled/l0/p2":           "0070f621710c7a8e",
	"mult16-func/compiled/l0/probe/p1":     "ab8a103c2fa93169",
	"mult16-func/compiled/l0/probe/p2":     "ab8a103c2fa93169",
	"mult16-func/jit/l1/p1":                "79f3247b2239e88e",
	"mult16-func/jit/l1/p2":                "79f3247b2239e88e",
	"mult16-func/vector/l256/p1":           "95e12f07415534f3",
	"mult16-func/vector/l256/p2":           "95e12f07415534f3",
	"mult16-func/jit/l1/probe/p1":          "1cad8c4c69ae49cb",
	"mult16-func/jit/l1/probe/p2":          "1cad8c4c69ae49cb",
	"mult16-func/vector/l96/probe65/p1":    "cae220fa92a5df66",
	"mult16-func/vector/l96/probe65/p2":    "cae220fa92a5df66",
	"mult16-func/faults/p1":                "22496daea4cec28b",
	"mult16-func/faults/p2":                "22496daea4cec28b",
	"random-3-60/compiled/l0/p1":           "e979ff58ee8013b1",
	"random-3-60/compiled/l0/p2":           "e979ff58ee8013b1",
	"random-3-60/compiled/l0/probe/p1":     "b8c7825bf515c18d",
	"random-3-60/compiled/l0/probe/p2":     "b8c7825bf515c18d",
	"random-3-60/jit/l1/p1":                "49650c1a475d46b9",
	"random-3-60/jit/l1/p2":                "49650c1a475d46b9",
	"random-3-60/vector/l256/p1":           "4498759145e9f34b",
	"random-3-60/vector/l256/p2":           "4498759145e9f34b",
	"random-3-60/jit/l1/probe/p1":          "6f0dc579a845784a",
	"random-3-60/jit/l1/probe/p2":          "6f0dc579a845784a",
	"random-3-60/vector/l96/probe65/p1":    "da5b4caba3b6d49f",
	"random-3-60/vector/l96/probe65/p2":    "da5b4caba3b6d49f",
	"random-3-60/faults/p1":                "82ce4dc36043fead",
	"random-3-60/faults/p2":                "82ce4dc36043fead",
	"random-7-80/compiled/l0/p1":           "e55739b63805d610",
	"random-7-80/compiled/l0/p2":           "e55739b63805d610",
	"random-7-80/compiled/l0/probe/p1":     "6a9428fd5889ccaa",
	"random-7-80/compiled/l0/probe/p2":     "6a9428fd5889ccaa",
	"random-7-80/jit/l1/p1":                "e2a0819a962b034f",
	"random-7-80/jit/l1/p2":                "e2a0819a962b034f",
	"random-7-80/vector/l256/p1":           "79e8cae572e518cd",
	"random-7-80/vector/l256/p2":           "79e8cae572e518cd",
	"random-7-80/jit/l1/probe/p1":          "85582cd87ac37a5f",
	"random-7-80/jit/l1/probe/p2":          "85582cd87ac37a5f",
	"random-7-80/vector/l96/probe65/p1":    "00870f94251a7031",
	"random-7-80/vector/l96/probe65/p2":    "00870f94251a7031",
	"random-7-80/faults/p1":                "68bd8db8b269f371",
	"random-7-80/faults/p2":                "68bd8db8b269f371",
	"random-11-48/compiled/l0/p1":          "21f1c3ae928b8217",
	"random-11-48/compiled/l0/p2":          "21f1c3ae928b8217",
	"random-11-48/compiled/l0/probe/p1":    "102e632c5ef0868c",
	"random-11-48/compiled/l0/probe/p2":    "102e632c5ef0868c",
	"random-11-48/jit/l1/p1":               "9365c63004c6100f",
	"random-11-48/jit/l1/p2":               "9365c63004c6100f",
	"random-11-48/vector/l256/p1":          "6213e25526c3785e",
	"random-11-48/vector/l256/p2":          "6213e25526c3785e",
	"random-11-48/jit/l1/probe/p1":         "4e1e34d4f0cc3e93",
	"random-11-48/jit/l1/probe/p2":         "4e1e34d4f0cc3e93",
	"random-11-48/vector/l96/probe65/p1":   "5d1edf0b8718321a",
	"random-11-48/vector/l96/probe65/p2":   "5d1edf0b8718321a",
	"random-11-48/faults/p1":               "fd0d6f4093adb074",
	"random-11-48/faults/p2":               "fd0d6f4093adb074",
}

func hashValue(h hash.Hash, v Value) {
	b, u, z, w := v.Raw()
	var buf [25]byte
	binary.LittleEndian.PutUint64(buf[0:], b)
	binary.LittleEndian.PutUint64(buf[8:], u)
	binary.LittleEndian.PutUint64(buf[16:], z)
	buf[24] = w
	h.Write(buf[:])
}

// parityDigest hashes what a run computes, leaving out how much work it
// took: the node updates, every lane's final values, the probe history of
// every node and the fault coverage with its per-fault statuses.
func parityDigest(res *Result, rec *Recorder) string {
	h := sha256.New()
	fmt.Fprintf(h, "updates %d steps %d\n", res.Stats.NodeUpdates, res.Stats.TimeSteps)
	for _, v := range res.Final {
		hashValue(h, v)
	}
	for l := 0; l < res.LaneFinal.Lanes(); l++ {
		fmt.Fprintf(h, "lane %d\n", l)
		for _, v := range res.LaneFinal.Lane(l) {
			hashValue(h, v)
		}
	}
	if rec != nil {
		for _, n := range rec.Nodes() {
			for _, ch := range rec.History(n) {
				fmt.Fprintf(h, "%d@%d:", n, ch.Time)
				hashValue(h, ch.Value)
			}
		}
	}
	if fc := res.FaultCoverage; fc != nil {
		fmt.Fprintf(h, "faults %d %d %d %d %d\n", fc.Total, fc.Detected, fc.Collapsed, fc.Passes, fc.Lanes)
		for _, st := range fc.Faults {
			fmt.Fprintf(h, "%s %v %d\n", st.Site, st.Detected, st.Step)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestPlaneCoreParity pins every observable result of the plane core, on
// the configurations parityCases lists, to the digests recorded before the
// step became selective: node updates, each lane's finals, probe histories
// and fault coverage and statuses. The compiled rows were recorded from the
// scalar compiled-mode engine the core replaced, and a compiled run keeps
// Algorithm 2's count: every element but the generators, at every step
// after the first.
func TestPlaneCoreParity(t *testing.T) {
	for _, pc := range parityCases() {
		o := pc.o
		var rec *Recorder
		if o.Probe != nil {
			rec = NewRecorder()
			o.Probe = rec
		}
		c := pc.c()
		res, err := Simulate(c, o)
		if err != nil {
			t.Fatalf("%s: %v", pc.name, err)
		}
		if got, want := parityDigest(res, rec), parityDigests[pc.name]; got != want {
			t.Errorf("%s: digest %s, want %s", pc.name, got, want)
		}
		if o.Engine == Compiled {
			want := int64(len(c.Elems)-len(c.Generators())) * (res.Stats.TimeSteps - 1)
			if res.Stats.Evals != want {
				t.Errorf("%s: evals %d, want %d (every element every step)", pc.name, res.Stats.Evals, want)
			}
		}
	}
}

package analyze

import (
	"bytes"
	"flag"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"parsim/internal/circuit"
	"parsim/internal/gen"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden profile snapshots")

// paperCircuits builds the four benchmark circuits of the paper's
// evaluation — the inputs engine=auto is calibrated on.
func paperCircuits() map[string]func() *circuit.Circuit {
	return map[string]func() *circuit.Circuit{
		"inverter-array": func() *circuit.Circuit { return gen.InverterArray(gen.DefaultInverterArray()) },
		"mult16-gate":    func() *circuit.Circuit { return gen.GateMultiplier(gen.DefaultMultiplier()) },
		"mult16-func":    func() *circuit.Circuit { return gen.FuncMultiplier(gen.DefaultMultiplier()) },
		"microprocessor": func() *circuit.Circuit { return gen.CPU(gen.DefaultCPU()) },
	}
}

// TestProfileGolden pins the full fingerprint of every paper circuit as an
// indented-JSON snapshot. A profile change (new field, altered estimate)
// shows up as a readable diff; regenerate intentionally with
// `go test ./internal/analyze -run TestProfileGolden -update`.
func TestProfileGolden(t *testing.T) {
	for name, build := range paperCircuits() {
		t.Run(name, func(t *testing.T) {
			got, err := Profile(build()).JSON()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "profile_"+name+".json")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create the snapshot)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("profile drifted from %s:\n--- want\n%s\n--- got\n%s", path, want, got)
			}
		})
	}
}

// TestProfileDeterministic: two profiles of independently built copies of
// the same circuit must serialise byte-identically — no map iteration or
// float instability may reach the output, or the golden snapshots (and the
// auto engine's selections) would flap.
func TestProfileDeterministic(t *testing.T) {
	for name, build := range paperCircuits() {
		a, err := Profile(build()).JSON()
		if err != nil {
			t.Fatal(err)
		}
		b, err := Profile(build()).JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two Profile calls disagree:\n%s\nvs\n%s", name, a, b)
		}
	}
}

// fuzzCorpusCircuits rebuilds the circuit of every checked-in FuzzEngines
// corpus entry: the entry's first two values are the seed and size byte
// the harness hands to RandomUnitCircuit.
func fuzzCorpusCircuits(t *testing.T) []*circuit.Circuit {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "fuzz", "FuzzEngines", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no FuzzEngines corpus found (%v)", err)
	}
	var out []*circuit.Circuit
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(data), "\n")
		if len(lines) < 3 {
			t.Fatalf("%s: not a fuzz corpus entry", f)
		}
		var vals [2]int64
		for i := range vals {
			tv, err := types.Eval(token.NewFileSet(), nil, token.NoPos, lines[1+i])
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			vals[i], _ = constant.Int64Val(tv.Value)
		}
		out = append(out, gen.RandomUnitCircuit(vals[0], int(vals[1])%120+4))
	}
	return out
}

// TestProfileMemoized: a memoized profile is the fresh one, field for
// field, and comes back under the caller's name as a copy the caller may
// scribble on.
func TestProfileMemoized(t *testing.T) {
	circuits := fuzzCorpusCircuits(t)
	for _, build := range paperCircuits() {
		circuits = append(circuits, build())
	}
	for _, c := range circuits {
		fresh := computeProfile(c)
		Profile(c)
		memoized := Profile(c)
		if !reflect.DeepEqual(memoized, fresh) {
			t.Errorf("%s: memoized profile differs from a fresh one:\n memo  %+v\n fresh %+v", c.Name, memoized, fresh)
		}
		memoized.Cuts[0].Workers = -1
		memoized.FanoutHist[0].Count = -1
		renamed := c.Clone()
		renamed.Name = c.Name + "-twin"
		twin := Profile(renamed)
		fresh.Circuit = renamed.Name
		if !reflect.DeepEqual(twin, fresh) {
			t.Errorf("%s: renamed twin did not get a clean copy under its own name: %+v", c.Name, twin)
		}
	}
	// What a profile reads and the structure digest leaves out must miss.
	c := gen.InverterArray(gen.DefaultInverterArray())
	before := Profile(c)
	c.Elems[len(c.Elems)-1].Cost += 7
	if after := Profile(c); after.TotalCost != before.TotalCost+7 {
		t.Errorf("cost change served from the memo: total cost %d, want %d", after.TotalCost, before.TotalCost+7)
	}
}

// TestProfileScales guards the O(elements) promise: profiling an 8x larger
// random unit-delay circuit must cost well under the 64x a quadratic pass
// would. Wall-clock ratios are noisy on shared hosts, so the bound is
// loose (24x, three times the linear ratio) and each size takes its best
// of three runs.
func TestProfileScales(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	timeProfile := func(size int) time.Duration {
		c := gen.RandomUnitCircuit(7, size)
		best := time.Duration(0)
		for i := 0; i < 3; i++ {
			start := time.Now()
			p := computeProfile(c)
			d := time.Since(start)
			if p.Elements == 0 {
				t.Fatal("empty profile")
			}
			if i == 0 || d < best {
				best = d
			}
		}
		return best
	}
	small := timeProfile(625)
	large := timeProfile(5000)
	if small <= 0 {
		small = time.Microsecond
	}
	if ratio := float64(large) / float64(small); ratio > 24 {
		t.Errorf("profiling 5000 elements took %.0fx the 625-element cost (%v vs %v); expected roughly linear",
			ratio, large, small)
	}
}

// TestProfileFeedbackChain: the profiler must census delayed loops — the
// asynchronous algorithm's serialisation hazard — on the one paper topology
// that has them.
func TestProfileFeedbackChain(t *testing.T) {
	p := Profile(gen.FeedbackChain(31))
	if p.FeedbackLoops == 0 || p.LoopElems == 0 {
		t.Fatalf("feedback chain profiled without loops: %+v", p)
	}
	if p.MinLoopDelay <= 0 {
		t.Errorf("delayed loop reported with min delay %d", p.MinLoopDelay)
	}
	if p.LoopSerialCost <= 0 {
		t.Errorf("loop serial cost %v, want > 0", p.LoopSerialCost)
	}
}

// TestCutAt covers the nearest-worker lookup the cost model interpolates
// through.
func TestCutAt(t *testing.T) {
	p := Profile(gen.GateMultiplier(gen.DefaultMultiplier()))
	if cq := p.CutAt("blocks", 1); cq.CutFraction != 0 || cq.Imbalance != 1 {
		t.Errorf("single partition should be perfect, got %+v", cq)
	}
	for _, w := range []int{2, 3, 4, 8, 16} {
		cq := p.CutAt("blocks", w)
		if cq.Strategy != "blocks" {
			t.Fatalf("CutAt(blocks, %d) returned strategy %q", w, cq.Strategy)
		}
		if cq.Imbalance < 1 {
			t.Errorf("imbalance %v < 1 at %d workers", cq.Imbalance, w)
		}
	}
}

// TestProfileWriteText smoke-checks the human rendering: every section
// header present, no error.
func TestProfileWriteText(t *testing.T) {
	var buf bytes.Buffer
	if err := Profile(gen.InverterArray(gen.DefaultInverterArray())).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"profile ", "cost:", "levelization:", "fanout:", "activity:", "feedback:", "partition"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("text rendering missing %q:\n%s", want, out)
		}
	}
}

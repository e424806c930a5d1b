package partition

import (
	"strings"
	"testing"

	"parsim/internal/circuit"
	"parsim/internal/gen"
)

func strategies() []Strategy { return []Strategy{RoundRobin, Blocks, CostLPT} }

// checkCover verifies every non-generator element lands in exactly one
// partition.
func checkCover(t *testing.T, c *circuit.Circuit, parts [][]circuit.ElemID) {
	t.Helper()
	seen := make(map[circuit.ElemID]int)
	for _, part := range parts {
		for _, id := range part {
			seen[id]++
			if c.Elems[id].IsGenerator() {
				t.Errorf("generator %q assigned to a partition", c.Elems[id].Name)
			}
		}
	}
	want := 0
	for i := range c.Elems {
		if !c.Elems[i].IsGenerator() {
			want++
			if seen[c.Elems[i].ID] != 1 {
				t.Errorf("element %q covered %d times", c.Elems[i].Name, seen[c.Elems[i].ID])
			}
		}
	}
	if len(seen) != want {
		t.Errorf("covered %d elements, want %d", len(seen), want)
	}
}

// TestParseStrategy: every String() output round-trips, aliases resolve,
// and unknown names are rejected with the list of valid ones.
func TestParseStrategy(t *testing.T) {
	for _, s := range strategies() {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("round-trip %v -> %q -> %v (err %v)", s, s.String(), got, err)
		}
	}
	for in, want := range map[string]Strategy{
		"rr": RoundRobin, "": RoundRobin, "LPT": CostLPT, "block": Blocks,
	} {
		if got, err := ParseStrategy(in); err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseStrategy("kernighan-lin"); err == nil ||
		!strings.Contains(err.Error(), "round-robin") {
		t.Errorf("unknown strategy err = %v, want list of valid names", err)
	}
}

func TestSplitCoversAllStrategies(t *testing.T) {
	c := gen.InverterArray(gen.InverterArrayConfig{Rows: 8, Cols: 8, ActiveRows: 8, TogglePeriod: 1})
	for _, s := range strategies() {
		for _, p := range []int{1, 2, 3, 7, 16} {
			parts := Split(c, p, s)
			if len(parts) != p {
				t.Fatalf("%v p=%d: %d partitions", s, p, len(parts))
			}
			checkCover(t, c, parts)
		}
	}
}

func TestRoundRobinBalance(t *testing.T) {
	c := gen.InverterArray(gen.InverterArrayConfig{Rows: 8, Cols: 8, ActiveRows: 8, TogglePeriod: 1})
	parts := Split(c, 4, RoundRobin)
	for _, part := range parts {
		if len(part) != 16 {
			t.Errorf("partition size %d, want 16", len(part))
		}
	}
	if im := Imbalance(c, parts); im > 1.01 {
		t.Errorf("imbalance %f on homogeneous circuit", im)
	}
}

func TestCostLPTBeatsRoundRobinOnFunctional(t *testing.T) {
	// The functional multiplier has wildly dissimilar element costs; LPT
	// should balance it at least as well as round-robin.
	c := gen.FuncMultiplier(gen.DefaultMultiplier())
	rr := Imbalance(c, Split(c, 8, RoundRobin))
	lpt := Imbalance(c, Split(c, 8, CostLPT))
	if lpt > rr+1e-9 {
		t.Errorf("LPT imbalance %.3f worse than round-robin %.3f", lpt, rr)
	}
	if lpt > 1.6 {
		t.Errorf("LPT imbalance %.3f unexpectedly poor", lpt)
	}
}

func TestMorePartitionsThanElements(t *testing.T) {
	c := gen.FeedbackChain(3) // 5 non-generator elements
	parts := Split(c, 16, RoundRobin)
	checkCover(t, c, parts)
	parts = Split(c, 16, Blocks)
	checkCover(t, c, parts)
}

func TestBadArgs(t *testing.T) {
	c := gen.FeedbackChain(3)
	for _, f := range []func(){
		func() { Split(c, 0, RoundRobin) },
		func() { Split(c, 2, Strategy(99)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
	if Strategy(99).String() != "unknown" {
		t.Error("unknown strategy name")
	}
}

func TestImbalanceEdgeCases(t *testing.T) {
	if Imbalance(nil, nil) != 1 {
		t.Error("no partitions must read as balanced")
	}
	c := gen.FeedbackChain(3)
	empty := [][]circuit.ElemID{{}, {}}
	if Imbalance(c, empty) != 1 {
		t.Error("zero-cost partitions must read as balanced")
	}
	// A deliberately lopsided partition.
	var all []circuit.ElemID
	for i := range c.Elems {
		if !c.Elems[i].IsGenerator() {
			all = append(all, c.Elems[i].ID)
		}
	}
	lop := [][]circuit.ElemID{all, {}}
	if im := Imbalance(c, lop); im != 2 {
		t.Errorf("all-on-one imbalance = %f, want 2", im)
	}
}

// TestCostBlocks: owners are contiguous in element order, every owner is in
// range, the blocks are balanced to within one element's weight of the ideal
// share, and costs a caller zeroed or made negative neither panic nor push
// an element past the last owner.
func TestCostBlocks(t *testing.T) {
	for _, c := range []*circuit.Circuit{
		gen.FuncMultiplier(gen.DefaultMultiplier()),
		gen.InverterArray(gen.DefaultInverterArray()),
		gen.CPU(gen.DefaultCPU()),
	} {
		for _, p := range []int{1, 2, 3, 7} {
			owners := CostBlocks(c, p)
			if len(owners) != len(c.Elems) {
				t.Fatalf("%s: %d owners for %d elements", c.Name, len(owners), len(c.Elems))
			}
			load := make([]int64, p)
			var total, heaviest int64
			last := int32(0)
			for i := range c.Elems {
				el := &c.Elems[i]
				if el.IsGenerator() {
					if owners[i] != 0 {
						t.Errorf("%s: generator %s owned by %d", c.Name, el.Name, owners[i])
					}
					continue
				}
				if owners[i] < last || int(owners[i]) >= p {
					t.Fatalf("%s P=%d: element %d owned by %d after owner %d", c.Name, p, i, owners[i], last)
				}
				last = owners[i]
				w := max(el.Cost, 1)
				load[owners[i]] += w
				total += w
				heaviest = max(heaviest, w)
			}
			for o, l := range load {
				if ideal := total / int64(p); l > ideal+heaviest || l < ideal-heaviest {
					t.Errorf("%s P=%d: owner %d carries %d, ideal share %d (heaviest element %d)", c.Name, p, o, l, ideal, heaviest)
				}
			}
		}
	}
	c := gen.FeedbackChain(5)
	for i := range c.Elems {
		c.Elems[i].Cost = int64(i%3) - 1
	}
	for _, o := range CostBlocks(c, 4) {
		if o < 0 || o >= 4 {
			t.Fatalf("owner %d out of range with non-positive costs", o)
		}
	}
}

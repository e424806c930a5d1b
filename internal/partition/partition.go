// Package partition statically assigns circuit elements to processors:
// the owner blocks of the event-driven and asynchronous engines
// (CostBlocks), and the strategies the distributed and Time Warp engines
// and the compiled-mode model (machine.Compiled) split by. The paper
// notes that compiled-mode load-balancing is easy when elements are
// similar (gate level) and hard when evaluation costs differ wildly
// (functional level); the strategies here let the model-mode benchmarks
// quantify that.
package partition

import (
	"fmt"
	"sort"
	"strings"

	"parsim/internal/circuit"
)

// Strategy selects a partitioning algorithm.
type Strategy int

const (
	// RoundRobin deals elements 0..n-1 across processors in turn; the
	// baseline the paper's compiled-mode simulator uses.
	RoundRobin Strategy = iota
	// Blocks gives each processor one contiguous range of element IDs,
	// preserving locality between neighbouring cells of regular arrays.
	Blocks
	// CostLPT applies longest-processing-time-first bin packing on element
	// costs, the classic fix for dissimilar functional-model runtimes.
	CostLPT
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case RoundRobin:
		return "round-robin"
	case Blocks:
		return "blocks"
	case CostLPT:
		return "cost-lpt"
	}
	return "unknown"
}

// ParseStrategy parses a flag-style strategy name as produced by String.
func ParseStrategy(s string) (Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "round-robin", "roundrobin", "rr", "":
		return RoundRobin, nil
	case "blocks", "block":
		return Blocks, nil
	case "cost-lpt", "costlpt", "lpt":
		return CostLPT, nil
	}
	return RoundRobin, fmt.Errorf("parsim: unknown partition strategy %q (have round-robin, blocks, cost-lpt)", s)
}

// Split assigns every non-generator element of c to one of p partitions.
// Generators are excluded: the simulators schedule them separately.
func Split(c *circuit.Circuit, p int, s Strategy) [][]circuit.ElemID {
	if p < 1 {
		panic("partition: need at least one processor")
	}
	var ids []circuit.ElemID
	for i := range c.Elems {
		if !c.Elems[i].IsGenerator() {
			ids = append(ids, c.Elems[i].ID)
		}
	}
	parts := make([][]circuit.ElemID, p)
	switch s {
	case RoundRobin:
		for i, id := range ids {
			parts[i%p] = append(parts[i%p], id)
		}
	case Blocks:
		per := (len(ids) + p - 1) / p
		for i, id := range ids {
			parts[i/per] = append(parts[i/per], id)
		}
	case CostLPT:
		sort.SliceStable(ids, func(i, j int) bool {
			return c.Elems[ids[i]].Cost > c.Elems[ids[j]].Cost
		})
		load := make([]int64, p)
		for _, id := range ids {
			min := 0
			for w := 1; w < p; w++ {
				if load[w] < load[min] {
					min = w
				}
			}
			parts[min] = append(parts[min], id)
			load[min] += c.Elems[id].Cost
		}
		// Deterministic evaluation order within a partition.
		for _, part := range parts {
			sort.Slice(part, func(i, j int) bool { return part[i] < part[j] })
		}
	default:
		panic("partition: unknown strategy")
	}
	return parts
}

// CostBlocks gives every non-generator element of c one of p owners (a
// generator's entry stays 0): contiguous blocks of element IDs balanced on
// max(Cost, 1), an element going to the owner its cost midpoint falls in.
// The asynchronous and the event-driven engines both route an element's
// work to this owner, so its state and output nodes stay in one cache.
func CostBlocks(c *circuit.Circuit, p int) []int32 {
	if p < 1 {
		panic("partition: need at least one processor")
	}
	// Cost is a public field, so a zero or negative one must not push a
	// midpoint past the last owner.
	weight := func(el *circuit.Element) int64 { return max(el.Cost, 1) }
	var total int64
	for i := range c.Elems {
		if !c.Elems[i].IsGenerator() {
			total += weight(&c.Elems[i])
		}
	}
	owners := make([]int32, len(c.Elems))
	var before int64
	for i := range c.Elems {
		if el := &c.Elems[i]; !el.IsGenerator() {
			owners[i] = int32((2*before + weight(el)) * int64(p) / (2 * total))
			before += weight(el)
		}
	}
	return owners
}

// Imbalance returns max partition cost divided by mean partition cost — 1.0
// is perfect balance. It is the quantity the paper blames for the
// functional multiplier's poor compiled-mode speed-up.
func Imbalance(c *circuit.Circuit, parts [][]circuit.ElemID) float64 {
	if len(parts) == 0 {
		return 1
	}
	var total, max int64
	for _, part := range parts {
		var load int64
		for _, id := range part {
			load += c.Elems[id].Cost
		}
		total += load
		if load > max {
			max = load
		}
	}
	if total == 0 {
		return 1
	}
	mean := float64(total) / float64(len(parts))
	return float64(max) / mean
}

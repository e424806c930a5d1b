package analyze

import (
	"sort"

	"parsim/internal/circuit"
	"parsim/internal/partition"
)

// PartitionReport summarises how well a static partition of the circuit
// would behave: the per-partition evaluation weight the compiled and
// distributed engines balance, the cut edges that become inter-worker
// messages, and the fan-out hot spots that broadcast across partitions.
type PartitionReport struct {
	Workers   int     `json:"workers"`
	Strategy  string  `json:"strategy"`
	Imbalance float64 `json:"imbalance"` // max/mean partition cost; 1.0 is perfect
	// CutEdges counts driver->consumer edges whose endpoints live in
	// different partitions (generator-driven edges excluded: generators
	// are scheduled outside the partitions). TotalEdges is the same count
	// without the partition test.
	CutEdges   int        `json:"cut_edges"`
	TotalEdges int        `json:"total_edges"`
	Parts      []PartInfo `json:"parts"`
	// HotNodes are the widest cross-partition broadcast points, ordered
	// by the number of partitions touched, then fan-out.
	HotNodes []HotNode `json:"hot_nodes,omitempty"`
}

// PartInfo describes one partition.
type PartInfo struct {
	Elems int   `json:"elems"`
	Cost  int64 `json:"cost"`
}

// HotNode is one fan-out hot spot.
type HotNode struct {
	Node       string `json:"node"`
	Fanout     int    `json:"fanout"`
	Partitions int    `json:"partitions"` // distinct consumer partitions
}

const maxHotNodes = 5

func partitionReport(c *circuit.Circuit, opts Options) *PartitionReport {
	parts := partition.Split(c, opts.Workers, opts.Strategy)
	pr := &PartitionReport{
		Workers:   opts.Workers,
		Strategy:  opts.Strategy.String(),
		Imbalance: partition.Imbalance(c, parts),
		Parts:     make([]PartInfo, len(parts)),
	}
	for p, ids := range parts {
		for _, id := range ids {
			pr.Parts[p].Elems++
			pr.Parts[p].Cost += c.Elems[id].Cost
		}
	}
	partOf := partIndex(c, parts)
	pr.CutEdges, pr.TotalEdges = cutEdges(c, partOf)
	var hot []HotNode
	seen := make(map[int]bool)
	for i := range c.Nodes {
		nd := &c.Nodes[i]
		if nd.Driver == circuit.NoElem {
			continue
		}
		clear(seen)
		for _, ref := range nd.Fanout {
			seen[partOf[ref.Elem]] = true
		}
		if len(seen) >= 2 && len(nd.Fanout) >= 2 {
			hot = append(hot, HotNode{Node: nd.Name, Fanout: len(nd.Fanout), Partitions: len(seen)})
		}
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].Partitions != hot[j].Partitions {
			return hot[i].Partitions > hot[j].Partitions
		}
		if hot[i].Fanout != hot[j].Fanout {
			return hot[i].Fanout > hot[j].Fanout
		}
		return hot[i].Node < hot[j].Node
	})
	if len(hot) > maxHotNodes {
		hot = hot[:maxHotNodes]
	}
	pr.HotNodes = hot
	return pr
}

// partIndex maps every element to the index of its partition, and a
// generator, which no partition holds, to -1.
func partIndex(c *circuit.Circuit, parts [][]circuit.ElemID) []int {
	partOf := make([]int, len(c.Elems))
	for i := range partOf {
		partOf[i] = -1
	}
	for p, ids := range parts {
		for _, id := range ids {
			partOf[id] = p
		}
	}
	return partOf
}

// cutEdges counts the driver->consumer edges (total) and those whose
// endpoints lie in different partitions (cut). Generator-driven edges are
// left out: generators are scheduled outside the partitions.
func cutEdges(c *circuit.Circuit, partOf []int) (cut, total int) {
	for i := range c.Nodes {
		nd := &c.Nodes[i]
		if nd.Driver == circuit.NoElem || partOf[nd.Driver] < 0 {
			continue
		}
		dp := partOf[nd.Driver]
		for _, ref := range nd.Fanout {
			total++
			if partOf[ref.Elem] != dp {
				cut++
			}
		}
	}
	return cut, total
}

package analyze

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"parsim/internal/circuit"
	"parsim/internal/partition"
)

// CircuitProfile is the static structural fingerprint of a circuit: every
// quantity the engine-selection cost model needs, computed from the element
// graph alone — no simulation, no traces. The profile is deterministic
// (two calls on the same circuit produce byte-identical JSON) and O(elements),
// so it stays cheap at million-gate scale.
//
// The quantities follow what actually governs parallel-simulator throughput:
// levelized depth and width bound synchronous parallelism, the activity
// estimate separates event-driven from compiled-mode economics (the paper's
// central trade-off), feedback loops bound the asynchronous algorithm's
// progress (the paper's T4 serialisation case), fanout hot spots and
// partition cut quality bound the message-passing engines, and the
// memory-model cost fraction shifts the balance between dispatch overhead
// and evaluation work.
type CircuitProfile struct {
	Circuit    string `json:"circuit"`
	Nodes      int    `json:"nodes"`
	Elements   int    `json:"elements"`
	Generators int    `json:"generators"`
	Gates      int    `json:"gates"`
	Functional int    `json:"functional"`
	// Sequential counts state-holding elements: trigger-sampled kinds
	// (dff, dffr, ram) plus transparent latches.
	Sequential int `json:"sequential"`
	// TotalCost sums non-generator evaluation cost (circuit cost units).
	TotalCost int64 `json:"total_cost"`
	// UnitDelay reports every element at delay 1 — the precondition for the
	// compiled engine and the plane core to reproduce event-timed histories.
	UnitDelay bool  `json:"unit_delay"`
	MaxDelay  int64 `json:"max_delay"`

	// Levelization: topological depth over combinational edges.
	MaxLevel    int   `json:"max_level"`
	LevelWidths []int `json:"level_widths,omitempty"`
	Unlevelized int   `json:"unlevelized,omitempty"`
	// PeakWidth and MeanWidth summarise the per-level width distribution —
	// the parallelism ceiling of the synchronous algorithms.
	PeakWidth int     `json:"peak_width"`
	MeanWidth float64 `json:"mean_width"`

	// Fanout distribution over driven nodes.
	FanoutHist []FanoutBucket `json:"fanout_hist"`
	MaxFanout  int            `json:"max_fanout"`
	// HotShare is the fraction of all fanout edges carried by the five
	// widest nodes — broadcast pressure on the partitioned engines.
	HotShare float64 `json:"hot_share"`
	// EdgeFanout is the fanout-weighted mean fanout (sum f² / sum f): the
	// expected fanout of the node behind a randomly chosen edge. It proxies
	// lock and broadcast contention — an update to a wide node makes every
	// engine that locks per node touch all its consumers at once.
	EdgeFanout float64 `json:"edge_fanout"`

	// MemCostFraction is the share of TotalCost in memory-model elements
	// (mul, alu, rom, ram) — heavy, unsplittable evaluations.
	MemCostFraction float64 `json:"mem_cost_fraction"`
	// SeqFraction is Sequential / (Elements - Generators).
	SeqFraction float64 `json:"seq_fraction"`

	// Activity estimate: expected events per tick propagated through the
	// stimulus cones (generator rates attenuated through logic, sampled at
	// trigger ports). EvalsPerTick is the expected number of element
	// evaluations per tick; EvalCostPerTick weights each by element cost;
	// MaxRateCost is the hottest single element (rate x cost), the
	// asynchronous algorithm's serial floor; ActiveFraction is
	// EvalsPerTick / (Elements - Generators).
	EvalsPerTick    float64   `json:"evals_per_tick"`
	EvalCostPerTick float64   `json:"eval_cost_per_tick"`
	ActiveFraction  float64   `json:"active_fraction"`
	MaxRateCost     float64   `json:"max_rate_cost"`
	LevelActivity   []float64 `json:"level_activity,omitempty"`

	// Feedback census over combinational SCCs (delayed loops — zero-delay
	// loops are the analyzer's business, not the profiler's).
	FeedbackLoops int   `json:"feedback_loops"`
	LoopElems     int   `json:"loop_elems,omitempty"`
	MinLoopDelay  int64 `json:"min_loop_delay,omitempty"`
	// LoopSerialCost is max over loops of (loop cost / loop delay): the
	// per-tick work the tightest loop forces through one worker.
	LoopSerialCost float64 `json:"loop_serial_cost,omitempty"`

	// Cuts scores every partition strategy at 2/4/8 workers: cost imbalance
	// (max/mean, 1.0 perfect) and the fraction of propagation edges crossing
	// partitions (inter-worker traffic).
	Cuts []CutQuality `json:"cuts"`
}

// FanoutBucket is one bar of the fanout histogram.
type FanoutBucket struct {
	Label string `json:"label"`
	Count int    `json:"count"`
}

// CutQuality scores one (strategy, workers) static partition.
type CutQuality struct {
	Strategy    string  `json:"strategy"`
	Workers     int     `json:"workers"`
	Imbalance   float64 `json:"imbalance"`
	CutFraction float64 `json:"cut_fraction"`
}

// cutWorkerSweep is the fixed worker grid the profile scores partitions at;
// the cost model interpolates by nearest count for other worker budgets.
var cutWorkerSweep = []int{2, 4, 8}

// Profile computes the static fingerprint of c. It never runs simulation
// and is deterministic: no map iteration reaches the output.
//
// Like LevelSchedule the fingerprint is memoized, under a digest of
// everything it reads, so a daemon that is sent the same design again and
// again profiles it once. The returned profile is the caller's own copy,
// under the caller's circuit name.
func Profile(c *circuit.Circuit) *CircuitProfile {
	p := profCache.get(profileKey(c), func() *CircuitProfile { return computeProfile(c) }).clone()
	p.Circuit = c.Name
	return p
}

const profCacheCap = 128

var profCache = newMemo[*CircuitProfile](profCacheCap)

// profileKey extends the structure digest with the rest of what
// computeProfile reads: per element the delay, the cost (which callers may
// adjust on a built circuit) and, for generators, the parameters their
// event rate derives from; per node the width.
func profileKey(c *circuit.Circuit) [sha256.Size]byte {
	structure := c.StructureDigest()
	h := sha256.New()
	w := bufio.NewWriter(h)
	w.Write(structure[:])
	var word [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		w.Write(word[:])
	}
	for i := range c.Elems {
		el := &c.Elems[i]
		put(int64(el.Delay))
		put(el.Cost)
		if circuit.IsGenerator(el.Kind) {
			p := &el.Params
			put(int64(p.Period))
			put(int64(p.Phase))
			put(int64(p.Duty))
			put(p.Seed)
			w.Write(p.Init.Append(w.AvailableBuffer()))
			put(int64(len(p.Times)))
			for _, t := range p.Times {
				put(int64(t))
			}
			for _, v := range p.Values {
				w.Write(v.Append(w.AvailableBuffer()))
			}
		}
	}
	for i := range c.Nodes {
		put(int64(c.Nodes[i].Width))
	}
	w.Flush()
	var k [sha256.Size]byte
	h.Sum(k[:0])
	return k
}

// clone returns a copy that shares no slice with p.
func (p *CircuitProfile) clone() *CircuitProfile {
	cp := *p
	cp.LevelWidths = slices.Clone(p.LevelWidths)
	cp.FanoutHist = slices.Clone(p.FanoutHist)
	cp.LevelActivity = slices.Clone(p.LevelActivity)
	cp.Cuts = slices.Clone(p.Cuts)
	return &cp
}

// computeProfile is Profile without the memo.
func computeProfile(c *circuit.Circuit) *CircuitProfile {
	p := &CircuitProfile{
		Circuit:  c.Name,
		Nodes:    len(c.Nodes),
		Elements: len(c.Elems),
		MaxLevel: -1,
	}
	for i := range c.Elems {
		el := &c.Elems[i]
		switch {
		case circuit.IsGenerator(el.Kind):
			p.Generators++
		case el.Kind >= circuit.KindBuf && el.Kind <= circuit.KindXnor:
			p.Gates++
		default:
			p.Functional++
		}
		if !circuit.IsGenerator(el.Kind) {
			p.TotalCost += el.Cost
			if isMemKind(el.Kind) {
				p.MemCostFraction += float64(el.Cost)
			}
			if isSeqKind(el.Kind) {
				p.Sequential++
			}
		}
		if d := int64(el.Delay); d > p.MaxDelay {
			p.MaxDelay = d
		}
	}
	p.UnitDelay = c.UnitDelay()
	if p.TotalCost > 0 {
		p.MemCostFraction = round3(p.MemCostFraction / float64(p.TotalCost))
	}
	if n := p.Elements - p.Generators; n > 0 {
		p.SeqFraction = round3(float64(p.Sequential) / float64(n))
	}

	g := buildGraph(c)
	sched := levelsFor(c)
	levels, maxLevel := sched.levels, sched.maxLevel
	p.MaxLevel = maxLevel
	if maxLevel >= 0 {
		p.LevelWidths = make([]int, maxLevel+1)
	}
	for _, l := range levels {
		if l >= 0 {
			p.LevelWidths[l]++
		} else {
			p.Unlevelized++
		}
	}
	for _, w := range p.LevelWidths {
		if w > p.PeakWidth {
			p.PeakWidth = w
		}
	}
	if len(p.LevelWidths) > 0 {
		p.MeanWidth = round3(float64(p.Elements-p.Unlevelized) / float64(len(p.LevelWidths)))
	}

	p.fanout(c)
	p.activity(c, levels)
	p.feedback(c, g)
	p.cuts(c)
	return p
}

// isMemKind marks the memory-model kinds: the wide, expensive evaluations
// whose cost cannot be split across workers.
func isMemKind(k circuit.Kind) bool {
	switch k {
	case circuit.KindMul, circuit.KindAlu, circuit.KindRom, circuit.KindRam:
		return true
	}
	return false
}

// isSeqKind marks state-holding elements: everything with trigger ports
// plus transparent latches.
func isSeqKind(k circuit.Kind) bool {
	return circuit.TriggerPorts(k) != nil || k == circuit.KindLatch
}

// fanoutBuckets are the histogram edges: bucket i covers
// [fanoutBuckets[i], fanoutBuckets[i+1]).
var fanoutBuckets = []int{0, 1, 2, 4, 8, 16, 64}

func (p *CircuitProfile) fanout(c *circuit.Circuit) {
	counts := make([]int, len(fanoutBuckets))
	labels := make([]string, len(fanoutBuckets))
	for i, lo := range fanoutBuckets {
		if i+1 < len(fanoutBuckets) {
			hi := fanoutBuckets[i+1] - 1
			if hi == lo {
				labels[i] = fmt.Sprint(lo)
			} else {
				labels[i] = fmt.Sprintf("%d-%d", lo, hi)
			}
		} else {
			labels[i] = fmt.Sprintf("%d+", lo)
		}
	}
	var total int
	var sq float64
	var top [5]int // five widest fanouts, descending
	for i := range c.Nodes {
		nd := &c.Nodes[i]
		if nd.Driver == circuit.NoElem {
			continue
		}
		f := len(nd.Fanout)
		total += f
		sq += float64(f) * float64(f)
		if f > p.MaxFanout {
			p.MaxFanout = f
		}
		for j := 0; j < len(top); j++ {
			if f > top[j] {
				copy(top[j+1:], top[j:])
				top[j] = f
				break
			}
		}
		b := 0
		for b+1 < len(fanoutBuckets) && f >= fanoutBuckets[b+1] {
			b++
		}
		counts[b]++
	}
	p.FanoutHist = make([]FanoutBucket, len(counts))
	for i := range counts {
		p.FanoutHist[i] = FanoutBucket{Label: labels[i], Count: counts[i]}
	}
	if total > 0 {
		hot := 0
		for _, f := range top {
			hot += f
		}
		p.HotShare = round3(float64(hot) / float64(total))
		p.EdgeFanout = round3(sq / float64(total))
	}
}

// activity propagates static event-rate estimates from the stimulus
// generators through the element graph in level order. Rates are events
// per tick on an element's outputs, capped at 1 (every engine coalesces
// same-tick updates per node):
//
//   - generators emit at their configured period;
//   - trigger-sampled elements (dff, dffr, ram) emit at half their trigger
//     rate — a register changes on some edges, not all;
//   - gates attenuate (half the input events flip the output);
//   - other functional elements pass activity through.
//
// Elements inside combinational cycles have no level; they get a flat 0.5,
// the paper's observation that a live feedback loop stays busy.
func (p *CircuitProfile) activity(c *circuit.Circuit, levels []int) {
	n := len(c.Elems)
	outRate := make([]float64, n)
	evalRate := make([]float64, n)

	// Group elements by level; element ID order inside a level keeps the
	// pass deterministic.
	order := make([]int, 0, n)
	byLevel := make([][]int, 0)
	for id, l := range levels {
		if l < 0 {
			continue
		}
		for len(byLevel) <= l {
			byLevel = append(byLevel, nil)
		}
		byLevel[l] = append(byLevel[l], id)
	}
	for _, ids := range byLevel {
		order = append(order, ids...)
	}

	rateOf := func(nid circuit.NodeID) float64 {
		d := c.Nodes[nid].Driver
		if d == circuit.NoElem {
			return 0
		}
		return outRate[d]
	}

	eval := func(id int) {
		el := &c.Elems[id]
		if circuit.IsGenerator(el.Kind) {
			outRate[id] = genRate(el)
			return
		}
		var in float64
		if tp := circuit.TriggerPorts(el.Kind); tp != nil {
			for _, port := range tp {
				if port < len(el.In) {
					in += rateOf(el.In[port])
				}
			}
			evalRate[id] = math.Min(1, in)
			outRate[id] = math.Min(1, 0.5*in)
			return
		}
		for _, nid := range el.In {
			in += rateOf(nid)
		}
		evalRate[id] = math.Min(1, in)
		if el.Kind >= circuit.KindBuf && el.Kind <= circuit.KindXnor {
			outRate[id] = math.Min(1, 0.5*in)
		} else {
			outRate[id] = math.Min(1, in)
		}
	}

	for _, id := range order {
		eval(id)
	}
	// Cycle-fed elements: no topological order exists; assume the loop is
	// live half the time.
	for id, l := range levels {
		if l < 0 {
			outRate[id] = 0.5
			evalRate[id] = 0.5
		}
	}

	if p.MaxLevel >= 0 {
		p.LevelActivity = make([]float64, p.MaxLevel+1)
	}
	for id := range c.Elems {
		if circuit.IsGenerator(c.Elems[id].Kind) {
			continue
		}
		r := evalRate[id]
		p.EvalsPerTick += r
		rc := r * float64(c.Elems[id].Cost)
		p.EvalCostPerTick += rc
		if rc > p.MaxRateCost {
			p.MaxRateCost = rc
		}
		if l := levels[id]; l >= 0 {
			p.LevelActivity[l] += r
		}
	}
	for i := range p.LevelActivity {
		p.LevelActivity[i] = round3(p.LevelActivity[i])
	}
	if n := p.Elements - p.Generators; n > 0 {
		p.ActiveFraction = round3(p.EvalsPerTick / float64(n))
	}
	p.EvalsPerTick = round3(p.EvalsPerTick)
	p.EvalCostPerTick = round3(p.EvalCostPerTick)
	p.MaxRateCost = round3(p.MaxRateCost)
}

// genRate estimates a generator's output events per tick.
func genRate(el *circuit.Element) float64 {
	period := float64(el.Params.Period)
	switch el.Kind {
	case circuit.KindClock:
		if period >= 1 {
			return math.Min(1, 2/period) // two edges per period
		}
		return 1
	case circuit.KindRand, circuit.KindGray:
		if period >= 1 {
			return math.Min(1, 1/period)
		}
		return 1
	case circuit.KindWave:
		if n := len(el.Params.Times); n > 1 {
			span := float64(el.Params.Times[n-1]-el.Params.Times[0]) + 1
			return math.Min(1, float64(n)/span)
		}
		return 0 // const-like: at most one change ever
	}
	return 0 // const
}

// feedback censuses the delayed combinational loops — the asynchronous
// algorithm's serialisation hazard (paper §4.1).
func (p *CircuitProfile) feedback(c *circuit.Circuit, g *graph) {
	for _, comp := range sccs(g.comb, nil) {
		if !isCycle(g.comb, comp) {
			continue
		}
		p.FeedbackLoops++
		p.LoopElems += len(comp)
		var delay, cost int64
		for _, v := range comp {
			delay += int64(c.Elems[v].Delay)
			cost += c.Elems[v].Cost
		}
		if p.MinLoopDelay == 0 || delay < p.MinLoopDelay {
			p.MinLoopDelay = delay
		}
		if delay > 0 {
			if s := float64(cost) / float64(delay); s > p.LoopSerialCost {
				p.LoopSerialCost = s
			}
		}
	}
	p.LoopSerialCost = round3(p.LoopSerialCost)
}

// cuts scores every partition strategy on the fixed worker grid.
func (p *CircuitProfile) cuts(c *circuit.Circuit) {
	for _, s := range []partition.Strategy{partition.RoundRobin, partition.Blocks, partition.CostLPT} {
		for _, workers := range cutWorkerSweep {
			parts := partition.Split(c, workers, s)
			cut, total := cutEdges(c, partIndex(c, parts))
			cq := CutQuality{
				Strategy:  s.String(),
				Workers:   workers,
				Imbalance: round3(partition.Imbalance(c, parts)),
			}
			if total > 0 {
				cq.CutFraction = round3(float64(cut) / float64(total))
			}
			p.Cuts = append(p.Cuts, cq)
		}
	}
}

// round3 quantises to three decimals so profile JSON stays stable and
// readable; every input is already deterministic.
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// CutAt returns the cut quality for the given strategy at the nearest
// scored worker count (workers <= 1 is a perfect single partition).
func (p *CircuitProfile) CutAt(strategy string, workers int) CutQuality {
	if workers <= 1 {
		return CutQuality{Strategy: strategy, Workers: 1, Imbalance: 1, CutFraction: 0}
	}
	best := CutQuality{Strategy: strategy, Workers: workers, Imbalance: 1, CutFraction: 0}
	bestDist := -1
	for _, cq := range p.Cuts {
		if cq.Strategy != strategy {
			continue
		}
		d := cq.Workers - workers
		if d < 0 {
			d = -d
		}
		if bestDist < 0 || d < bestDist {
			bestDist = d
			best = cq
		}
	}
	return best
}

// JSON renders the profile as stable indented JSON.
func (p *CircuitProfile) JSON() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}

// WriteJSON writes the indented JSON rendering plus a trailing newline.
func (p *CircuitProfile) WriteJSON(w io.Writer) error {
	b, err := p.JSON()
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteText renders the profile for humans, mirroring Report.WriteText.
func (p *CircuitProfile) WriteText(w io.Writer) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "profile %s: %d nodes, %d elements (%d generators, %d gates, %d functional, %d sequential)\n",
		p.Circuit, p.Nodes, p.Elements, p.Generators, p.Gates, p.Functional, p.Sequential)
	fmt.Fprintf(&sb, "  cost: total %d, memory-model fraction %.1f%%, unit-delay %v (max delay %d)\n",
		p.TotalCost, 100*p.MemCostFraction, p.UnitDelay, p.MaxDelay)
	if p.MaxLevel >= 0 {
		fmt.Fprintf(&sb, "  levelization: depth %d, peak width %d, mean width %.1f, widths %s",
			p.MaxLevel, p.PeakWidth, p.MeanWidth, widthsString(p.LevelWidths))
		if p.Unlevelized > 0 {
			fmt.Fprintf(&sb, " (+%d in combinational cycles)", p.Unlevelized)
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "  fanout: max %d, edge-weighted mean %.1f, top-5 nodes carry %.1f%% of edges, histogram",
		p.MaxFanout, p.EdgeFanout, 100*p.HotShare)
	for _, b := range p.FanoutHist {
		fmt.Fprintf(&sb, " %s:%d", b.Label, b.Count)
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "  activity: %.2f evals/tick (%.1f%% of elements), eval cost %.1f/tick, hottest element %.2f\n",
		p.EvalsPerTick, 100*p.ActiveFraction, p.EvalCostPerTick, p.MaxRateCost)
	if p.FeedbackLoops > 0 {
		fmt.Fprintf(&sb, "  feedback: %d loop(s), %d element(s), min loop delay %d, serial cost %.2f/tick\n",
			p.FeedbackLoops, p.LoopElems, p.MinLoopDelay, p.LoopSerialCost)
	} else {
		sb.WriteString("  feedback: none\n")
	}
	for _, cq := range p.Cuts {
		fmt.Fprintf(&sb, "  partition %-11s x%d: imbalance %.2f, cut %.1f%%\n",
			cq.Strategy, cq.Workers, cq.Imbalance, 100*cq.CutFraction)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

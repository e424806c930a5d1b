package machine

import (
	"testing"

	"parsim/internal/circuit"
	"parsim/internal/gen"
	"parsim/internal/partition"
	"parsim/internal/seq"
)

// collected is what seq.Collect records for the models.
type collected struct {
	Steps []seq.StepRecord
	Graph *seq.TaskGraph
}

// collect runs the sequential simulator with collection enabled.
func collect(t *testing.T, c *circuit.Circuit, horizon circuit.Time) *collected {
	t.Helper()
	res := &collected{}
	res.Steps, res.Graph = seq.Collect(c, horizon)
	if res.Graph == nil || len(res.Steps) == 0 {
		t.Fatal("collection produced nothing")
	}
	return res
}

func TestEventDrivenSpeedupGrowsAndSaturates(t *testing.T) {
	cm := DefaultCostModel()
	cm.CachePairPenalty = 0 // isolate the algorithmic effect
	cm.BusContention = 0
	c := gen.InverterArray(gen.InverterArrayConfig{Rows: 16, Cols: 16, ActiveRows: 16, TogglePeriod: 1})
	res := collect(t, c, 200)
	base := EventDriven(c, res.Steps, 1, EDDistributed, cm)
	prev := 0.0
	var s8, s16 float64
	for _, p := range []int{2, 4, 8, 16} {
		sp := EventDriven(c, res.Steps, p, EDDistributed, cm).Speedup(base)
		if sp < prev*0.95 {
			t.Errorf("speedup dropped at P=%d: %.2f after %.2f", p, sp, prev)
		}
		prev = sp
		if p == 8 {
			s8 = sp
		}
		if p == 16 {
			s16 = sp
		}
	}
	if s8 < 3 {
		t.Errorf("P=8 speedup %.2f too low for 256 events/tick", s8)
	}
	// Saturation: doubling 8 -> 16 must not double the speedup.
	if s16 > 1.9*s8 {
		t.Errorf("no saturation: s8=%.2f s16=%.2f", s8, s16)
	}
}

func TestEventDrivenEventStarvation(t *testing.T) {
	// Fig. 2's point: fewer events per tick -> worse speed-up at high P.
	cm := DefaultCostModel()
	cfgBig := gen.InverterArrayConfig{Rows: 32, Cols: 16, ActiveRows: 32, TogglePeriod: 1}
	cfgSmall := cfgBig
	cfgSmall.ActiveRows = 4
	big := gen.InverterArray(cfgBig)
	small := gen.InverterArray(cfgSmall)
	rb := collect(t, big, 150)
	rs := collect(t, small, 150)
	spBig := EventDriven(big, rb.Steps, 15, EDDistributed, cm).
		Speedup(EventDriven(big, rb.Steps, 1, EDDistributed, cm))
	spSmall := EventDriven(small, rs.Steps, 15, EDDistributed, cm).
		Speedup(EventDriven(small, rs.Steps, 1, EDDistributed, cm))
	if spBig <= spSmall {
		t.Errorf("512 ev/tick speedup %.2f not above 64 ev/tick %.2f", spBig, spSmall)
	}
}

func TestCentralQueueCeiling(t *testing.T) {
	// The paper's initial central-queue design peaked around 2x.
	cm := DefaultCostModel()
	c := gen.InverterArray(gen.DefaultInverterArray())
	res := collect(t, c, 150)
	base := EventDriven(c, res.Steps, 1, EDCentral, cm)
	s8 := EventDriven(c, res.Steps, 8, EDCentral, cm).Speedup(base)
	if s8 > 3.5 {
		t.Errorf("central-queue speedup %.2f; contention model too weak", s8)
	}
	sDist := EventDriven(c, res.Steps, 8, EDDistributed, cm).
		Speedup(EventDriven(c, res.Steps, 1, EDDistributed, cm))
	if sDist < 2*s8 {
		t.Errorf("distributed %.2f not clearly above central %.2f", sDist, s8)
	}
}

func TestStealingHelps(t *testing.T) {
	// On the functional multiplier (dissimilar costs) stealing must beat
	// static round-robin placement.
	cm := DefaultCostModel()
	c := gen.FuncMultiplier(gen.DefaultMultiplier())
	res := collect(t, c, 1024)
	steal := EventDriven(c, res.Steps, 8, EDDistributed, cm)
	noSteal := EventDriven(c, res.Steps, 8, EDNoSteal, cm)
	if steal.Span > noSteal.Span {
		t.Errorf("stealing made things worse: %f vs %f", steal.Span, noSteal.Span)
	}
}

func TestCompiledModeShapes(t *testing.T) {
	cm := DefaultCostModel()
	cm.CachePairPenalty = 0
	// Homogeneous gate circuit: near-linear to high P.
	arr := gen.InverterArray(gen.DefaultInverterArray())
	base := Compiled(arr, 100, 1, partition.RoundRobin, cm)
	s15 := Compiled(arr, 100, 15, partition.RoundRobin, cm).Speedup(base)
	if s15 < 8 {
		t.Errorf("compiled speedup on array %.2f, want >= 8 (paper: 10-13)", s15)
	}
	// Functional multiplier: few, dissimilar elements -> poor speed-up.
	fm := gen.FuncMultiplier(gen.DefaultMultiplier())
	fbase := Compiled(fm, 100, 1, partition.RoundRobin, cm)
	fs15 := Compiled(fm, 100, 15, partition.RoundRobin, cm).Speedup(fbase)
	if fs15 > s15*0.8 {
		t.Errorf("functional compiled speedup %.2f not clearly below array %.2f", fs15, s15)
	}
}

func TestAsyncBeatsEventDrivenUtilisation(t *testing.T) {
	// Fig. 5: at high processor counts the asynchronous algorithm wins on
	// utilisation for the inverter array.
	cm := DefaultCostModel()
	c := gen.InverterArray(gen.DefaultInverterArray())
	res := collect(t, c, 150)
	edU := EventDriven(c, res.Steps, 16, EDDistributed, cm).Utilization()
	asU := Async(c, res.Graph, 16, cm).Utilization()
	if asU <= edU {
		t.Errorf("async utilisation %.2f not above event-driven %.2f", asU, edU)
	}
}

func TestAsyncUniprocessorFasterThanEventDriven(t *testing.T) {
	// Text claim T1: async on one processor is 1-3x the event-driven speed.
	cm := DefaultCostModel()
	for _, c := range []*circuit.Circuit{
		gen.InverterArray(gen.DefaultInverterArray()),
		gen.FuncMultiplier(gen.DefaultMultiplier()),
	} {
		res := collect(t, c, 200)
		ed := EventDriven(c, res.Steps, 1, EDDistributed, cm).Span
		as := Async(c, res.Graph, 1, cm).Span
		ratio := float64(ed) / float64(as)
		if ratio < 1.0 || ratio > 4.0 {
			t.Errorf("%s: async/ED uniprocessor ratio %.2f outside [1,4]", c.Name, ratio)
		}
	}
}

func TestAsyncFeedbackWorstCase(t *testing.T) {
	// T4: a long feedback chain serialises the async algorithm; extra
	// processors must buy almost nothing.
	cm := DefaultCostModel()
	c := gen.FeedbackChain(31)
	res := collect(t, c, 2000)
	base := Async(c, res.Graph, 1, cm)
	s8 := Async(c, res.Graph, 8, cm).Speedup(base)
	if s8 > 2.5 {
		t.Errorf("feedback chain async speedup %.2f; should be nearly serial", s8)
	}
}

func TestAsyncRespectsCriticalPath(t *testing.T) {
	cm := DefaultCostModel()
	cm.CachePairPenalty = 0
	cm.BusContention = 0
	c := gen.InverterArray(gen.InverterArrayConfig{Rows: 4, Cols: 8, ActiveRows: 4, TogglePeriod: 1})
	res := collect(t, c, 100)
	// With absurdly many processors the makespan approaches the critical
	// path: far below the serial span, never zero, and not worse with even
	// more processors. (Greedy scheduling with element affinity is not
	// strictly monotone in general, but is on this feed-forward graph.)
	m1 := Async(c, res.Graph, 1, cm)
	m64 := Async(c, res.Graph, 64, cm)
	m128 := Async(c, res.Graph, 128, cm)
	if m64.Span <= 0 || m128.Span <= 0 {
		t.Fatal("empty makespan")
	}
	if m64.Span >= m1.Span {
		t.Errorf("64 processors no faster than 1: %f vs %f", m64.Span, m1.Span)
	}
	if m128.Span > m64.Span {
		t.Errorf("makespan grew with processors: %f -> %f", m64.Span, m128.Span)
	}
	// The longest dependency chain is ~horizon deep; the makespan cannot
	// collapse below it.
	if m128.Span < 100 {
		t.Errorf("makespan %f below the critical-path lower bound", m128.Span)
	}
}

func TestCacheDip(t *testing.T) {
	cm := DefaultCostModel() // penalty on
	c := gen.InverterArray(gen.DefaultInverterArray())
	res := collect(t, c, 150)
	base := EventDriven(c, res.Steps, 1, EDDistributed, cm)
	s8 := EventDriven(c, res.Steps, 8, EDDistributed, cm).Speedup(base)
	s9 := EventDriven(c, res.Steps, 9, EDDistributed, cm).Speedup(base)
	// Fig. 1's dip: the ninth processor shares a cache and helps less than
	// proportionally (or hurts).
	if s9 > s8*9.0/8.0 {
		t.Errorf("no cache-sharing dip: s8=%.2f s9=%.2f", s8, s9)
	}
}

func TestMakespanHelpers(t *testing.T) {
	m := Makespan{Span: 100, Busy: []float64{50, 30}}
	if u := m.Utilization(); u != 0.4 {
		t.Errorf("utilisation = %f", u)
	}
	if s := (Makespan{Span: 50}).Speedup(m); s != 2 {
		t.Errorf("speedup = %f", s)
	}
	if (Makespan{}).Utilization() != 0 {
		t.Error("empty utilisation")
	}
	if (Makespan{}).Speedup(m) != 0 {
		t.Error("zero-span speedup")
	}
}

func TestAsyncEmptyGraph(t *testing.T) {
	cm := DefaultCostModel()
	c := gen.FeedbackChain(3)
	g := &seq.TaskGraph{}
	m := Async(c, g, 4, cm)
	if m.Span != 0 {
		t.Errorf("empty graph span = %f", m.Span)
	}
}

func TestCompiledLPTBeatsRoundRobinInModel(t *testing.T) {
	// The cost-balancing partitioner must remove the functional
	// multiplier's erratic round-robin behaviour.
	cm := DefaultCostModel()
	fm := gen.FuncMultiplier(gen.DefaultMultiplier())
	for _, p := range []int{3, 6, 12} {
		rr := Compiled(fm, 100, p, partition.RoundRobin, cm)
		lpt := Compiled(fm, 100, p, partition.CostLPT, cm)
		if lpt.Span > rr.Span {
			t.Errorf("P=%d: LPT span %f worse than round-robin %f", p, lpt.Span, rr.Span)
		}
	}
}

package seq

import (
	"testing"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/logic"
	"parsim/internal/stats"
)

// collected is one collecting run next to the plain run of the same circuit.
type collected struct {
	Run   stats.Run
	Steps []StepRecord
	Graph *TaskGraph
}

// chainCollect builds clock -> inv0 -> inv1 and runs with collection.
func chainCollect(t *testing.T) (*circuit.Circuit, *collected) {
	t.Helper()
	b := circuit.NewBuilder("collect")
	clk := b.Bit("clk")
	n0 := b.Bit("n0")
	n1 := b.Bit("n1")
	b.Clock("gen", clk, 10, 0, 0)
	b.Gate(circuit.KindNot, "inv0", 1, n0, clk)
	b.Gate(circuit.KindNot, "inv1", 1, n1, n0)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := &collected{Run: simulate(t, c, engine.Config{Horizon: 50}).Stats}
	res.Steps, res.Graph = Collect(c, 50)
	return c, res
}

func TestCollectSteps(t *testing.T) {
	c, res := chainCollect(t)
	if len(res.Steps) == 0 || res.Graph == nil {
		t.Fatal("nothing collected")
	}
	if int64(len(res.Steps)) != res.Run.TimeSteps {
		t.Errorf("%d step records vs %d time steps", len(res.Steps), res.Run.TimeSteps)
	}
	var updates int64
	var evals int
	for _, st := range res.Steps {
		updates += int64(st.Updates)
		evals += len(st.Evals)
	}
	if updates != res.Run.NodeUpdates {
		t.Errorf("step updates %d != run updates %d", updates, res.Run.NodeUpdates)
	}
	if int64(evals) != res.Run.Evals {
		t.Errorf("step evals %d != run evals %d", evals, res.Run.Evals)
	}
	_ = c
}

func TestCollectGraphShape(t *testing.T) {
	c, res := chainCollect(t)
	g := res.Graph
	if int64(g.NumTasks()) != res.Run.Evals {
		t.Fatalf("graph has %d tasks, run had %d evals", g.NumTasks(), res.Run.Evals)
	}
	inv0 := c.ElByName["inv0"]
	inv1 := c.ElByName["inv1"]
	// Every inv1 task depends on exactly one inv0 task, one step earlier;
	// inv0 tasks are roots (generator-fed).
	byElem := map[circuit.ElemID]int{}
	for i := 0; i < g.NumTasks(); i++ {
		byElem[g.Elems[i]]++
		switch g.Elems[i] {
		case inv0:
			if len(g.Deps[i]) != 0 {
				t.Errorf("inv0 task %d has deps %v", i, g.Deps[i])
			}
		case inv1:
			if len(g.Deps[i]) != 1 {
				t.Fatalf("inv1 task %d has deps %v", i, g.Deps[i])
			}
			dep := g.Deps[i][0]
			if g.Elems[dep] != inv0 {
				t.Errorf("inv1 task %d depends on element %d", i, g.Elems[dep])
			}
			if g.Times[dep]+1 != g.Times[i] {
				t.Errorf("dependency times: %d -> %d", g.Times[dep], g.Times[i])
			}
		}
	}
	if byElem[inv0] == 0 || byElem[inv1] == 0 {
		t.Errorf("task distribution: %v", byElem)
	}
	// Dependencies always point backwards.
	for i := 0; i < g.NumTasks(); i++ {
		for _, d := range g.Deps[i] {
			if int(d) >= i {
				t.Fatalf("forward dependency %d -> %d", i, d)
			}
		}
	}
}

func TestCollectDisabledByDefault(t *testing.T) {
	b := circuit.NewBuilder("plain")
	clk := b.Bit("clk")
	y := b.Bit("y")
	b.Clock("gen", clk, 4, 0, 0)
	b.Gate(circuit.KindNot, "inv", 1, y, clk)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if newSim(c, engine.Config{Horizon: 20}).co != nil {
		t.Error("collection data present without Collect")
	}
	res := simulate(t, c, engine.Config{Horizon: 20})
	if res.Final[y].Equal(logic.AllX(1)) {
		t.Error("no simulation happened")
	}
}

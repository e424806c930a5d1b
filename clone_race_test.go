package parsim

import (
	"sync"
	"testing"
)

// TestConcurrentSimulateOnClones is the contract test for Circuit.Clone:
// many Simulate calls running concurrently, each on its own clone of one
// template circuit, must be race-free (run under -race via `make race`)
// and must all produce the reference node histories. Sharing one *Circuit
// between concurrent runs is outside the API contract — see the Simulate
// doc comment — so per-run cloning is exactly what a multi-tenant caller
// (e.g. the parsimd daemon) does.
func TestConcurrentSimulateOnClones(t *testing.T) {
	tmpl := BenchInverterArray(InverterArrayConfig{Rows: 8, Cols: 8, ActiveRows: 8, TogglePeriod: 1})
	const horizon = Time(200)

	refRec := NewRecorder()
	if _, err := Simulate(tmpl.Clone(), Options{Algorithm: Sequential, Horizon: horizon, Probe: refRec}); err != nil {
		t.Fatal(err)
	}

	algs := []Algorithm{Sequential, EventDriven, Compiled, Async, DistAsync, TimeWarp, ChandyMisra, Vector, JIT}
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(algs))
	diffs := make(chan string, 2*len(algs))
	for _, alg := range algs {
		for rep := 0; rep < 2; rep++ {
			wg.Add(1)
			go func(alg Algorithm) {
				defer wg.Done()
				workers := 2
				if alg == Sequential {
					workers = 1
				}
				rec := NewRecorder()
				clone := tmpl.Clone()
				if _, err := Simulate(clone, Options{
					Algorithm: alg,
					Horizon:   horizon,
					Workers:   workers,
					Probe:     rec,
				}); err != nil {
					errs <- err
					return
				}
				if d := HistoryDiff(clone, refRec, rec); d != "" {
					diffs <- alg.String() + ": " + d
				}
			}(alg)
		}
	}
	wg.Wait()
	close(errs)
	close(diffs)
	for err := range errs {
		t.Error(err)
	}
	for d := range diffs {
		t.Error(d)
	}
}

// TestCloneIndependentOfTemplateMutation pins the deep-copy property at
// the facade level: poking the template after cloning must not change the
// clone's behaviour.
func TestCloneIndependentOfTemplateMutation(t *testing.T) {
	tmpl := BenchInverterArray(InverterArrayConfig{Rows: 2, Cols: 4, ActiveRows: 2, TogglePeriod: 1})
	clone := tmpl.Clone()
	want, err := Simulate(tmpl.Clone(), Options{Algorithm: Sequential, Horizon: 50})
	if err != nil {
		t.Fatal(err)
	}
	// Vandalise the template (legal: we own it; it just must not leak).
	for i := range tmpl.Nodes {
		tmpl.Nodes[i].Fanout = nil
	}
	for i := range tmpl.Elems {
		tmpl.Elems[i].In = nil
		tmpl.Elems[i].Out = nil
	}
	got, err := Simulate(clone, Options{Algorithm: Sequential, Horizon: 50})
	if err != nil {
		t.Fatal(err)
	}
	for n := range want.Final {
		if !want.Final[n].Equal(got.Final[n]) {
			t.Fatalf("node %d final %v != %v after template mutation", n, got.Final[n], want.Final[n])
		}
	}
}

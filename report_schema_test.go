package parsim

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateReports = flag.Bool("update", false, "rewrite the run-report fixtures under testdata/report")

// schemaCase is one run whose encoded report the schema tests hold.
// Exact cases repeat byte for byte once the timing fields are zeroed, so
// a fresh run is compared against the recorded file; the others (two
// workers, an injected panic) vary run to run and are only round-tripped.
type schemaCase struct {
	name  string
	opts  Options
	exact bool
}

// schemaCases is every registry name at one worker on one fixed circuit,
// a fault-simulation run, and the reports whose optional keys need more
// than one worker or a fault: time-warp's rollbacks and cancellations,
// distributed-async's messages, and a fallback's degraded/fault pair.
func schemaCases() []schemaCase {
	var cs []schemaCase
	for _, name := range Algorithms() {
		cs = append(cs, schemaCase{name, Options{Engine: name, Workers: 1, Horizon: 64, Lanes: 4}, true})
	}
	return append(cs,
		schemaCase{"vector-faults", Options{Engine: Vector, Workers: 1, Horizon: 64, Lanes: 4, FaultSim: true, FaultStatuses: true}, true},
		schemaCase{"time-warp-p2", Options{Engine: TimeWarp, Workers: 2, Horizon: 256}, false},
		schemaCase{"distributed-async-p2", Options{Engine: DistAsync, Workers: 2, Horizon: 64}, false},
		schemaCase{"fallback", Options{Engine: Async, Workers: 2, Horizon: 64, Fallback: true, Chaos: &ChaosProbe{PanicAtEval: 40}}, false},
	)
}

// encodeSchemaRun runs one case on the fixed circuit and encodes its
// report with the wall-clock fields zeroed.
func encodeSchemaRun(t *testing.T, opts Options) []byte {
	t.Helper()
	res, err := Simulate(RandomUnitCircuit(3, 40), opts)
	if err != nil {
		t.Fatalf("%s: %v", opts.Engine, err)
	}
	res.Stats.Wall = 0
	for i := range res.Stats.PerWorker {
		res.Stats.PerWorker[i].Busy, res.Stats.PerWorker[i].Idle = 0, 0
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("%s: encode: %v", opts.Engine, err)
	}
	return b
}

func reportFixture(name string) string { return filepath.Join("testdata", "report", name+".json") }

// TestReportGolden pins the run-report schema: every engine's encoded
// report on the fixed circuit equals the bytes recorded for it, so a
// change to the report type or its codec cannot change what `parsim
// -json` prints or what the daemon serves.
func TestReportGolden(t *testing.T) {
	for _, sc := range schemaCases() {
		if !sc.exact && !*updateReports {
			continue
		}
		got := encodeSchemaRun(t, sc.opts)
		path := reportFixture(sc.name)
		if *updateReports {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoded report changed\n got %s\nwant %s", sc.name, got, want)
		}
	}
}

// TestReportRoundTrip decodes every recorded report and encodes it
// again: the bytes must not change, so a daemon client that decodes a
// job result sees everything the run reported. Between them the fixtures
// carry every optional key of the schema.
func TestReportRoundTrip(t *testing.T) {
	carried := map[string]bool{}
	for _, sc := range schemaCases() {
		b, err := os.ReadFile(reportFixture(sc.name))
		if err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(b, &keys); err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		for k := range keys {
			carried[k] = true
		}
		var res Result
		if err := json.Unmarshal(b, &res); err != nil {
			t.Fatalf("%s: decode: %v", sc.name, err)
		}
		again, err := json.Marshal(&res)
		if err != nil {
			t.Fatalf("%s: encode: %v", sc.name, err)
		}
		if !bytes.Equal(again, b) {
			t.Errorf("%s: round trip changed the report\n got %s\nwant %s", sc.name, again, b)
		}
	}
	for _, key := range []string{"final", "lane_final", "fault_coverage", "selected", "degraded", "fault",
		"messages", "rollbacks", "cancelled", "peak_log", "rounds"} {
		if !carried[key] {
			t.Errorf("no recorded report carries %q", key)
		}
	}
}

// TestTimeWarpRoundsReachTheFacade: the facade returns the engine's
// report as it is, so a time-warp run's GVT round count reaches callers
// of Simulate (it stays out of the encoded report).
func TestTimeWarpRoundsReachTheFacade(t *testing.T) {
	res, err := Simulate(RandomUnitCircuit(3, 40), Options{Engine: TimeWarp, Workers: 2, Horizon: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.GVTRounds <= 0 {
		t.Errorf("time-warp GVTRounds = %d, want > 0", res.GVTRounds)
	}
}

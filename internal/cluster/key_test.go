package cluster

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"parsim/internal/circuit"
	"parsim/internal/gen"
	"parsim/internal/netlist"

	// Register the engines the keys name, so canonicalization resolves
	// their aliases.
	_ "parsim/internal/parevent"
	_ "parsim/internal/seq"
)

// Two textual spellings of the same circuit: node and element lines are
// shuffled, whitespace differs, and the circuit arrives with different
// internal node IDs. The content-addressed key must not care.
const keyNetlistA = `circuit ring
node clk 1
node a 1
node b 1
node q 1
elem clock osc delay=1 out=clk period=8
elem not n1 delay=1 out=a in=clk
elem not n2 delay=1 out=b in=a
elem not n3 delay=1 out=q in=b
`

const keyNetlistB = `circuit ring
node q 1
node b 1
node clk 1
node a 1
elem not n3 delay=1 out=q in=b
elem not n2 delay=1 out=b in=a
elem clock osc delay=1 out=clk period=8
elem not n1 delay=1 out=a in=clk
`

func parseNetlist(t *testing.T, text string) *circuit.Circuit {
	t.Helper()
	c, err := netlist.Read(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCircuitKeyOrderIndependent(t *testing.T) {
	opts := &Submission{Engine: "event-driven", Workers: 4, Horizon: 100}
	ka := KeyForSubmission(parseNetlist(t, keyNetlistA), opts)
	kb := KeyForSubmission(parseNetlist(t, keyNetlistB), opts)
	if ka != kb {
		t.Fatalf("same circuit, different textual order: keys differ\n a=%s\n b=%s", ka, kb)
	}
	if len(ka) != 64 {
		t.Fatalf("key %q is not a hex SHA-256 digest", ka)
	}
}

func TestCircuitKeySensitivity(t *testing.T) {
	base := parseNetlist(t, keyNetlistA)
	opts := &Submission{Engine: "event-driven", Workers: 4, Horizon: 100}
	ref := KeyForSubmission(base, opts)

	// Any result-affecting change must change the key.
	cases := []struct {
		name string
		key  string
	}{
		{"different engine", KeyForSubmission(base, &Submission{Engine: "sequential", Workers: 4, Horizon: 100})},
		{"different horizon", KeyForSubmission(base, &Submission{Engine: "event-driven", Workers: 4, Horizon: 200})},
		{"fault sim on", KeyForSubmission(base, &Submission{Engine: "event-driven", Workers: 4, Horizon: 100, FaultSim: true})},
		{"different circuit", KeyForSubmission(parseNetlist(t, strings.Replace(keyNetlistA, "period=8", "period=6", 1)), opts)},
		{"renamed element", KeyForSubmission(parseNetlist(t, strings.Replace(keyNetlistA, "not n3", "not n9", 1)), opts)},
	}
	for _, tc := range cases {
		if tc.key == ref {
			t.Errorf("%s: key unchanged", tc.name)
		}
	}

	// Workers changes the parallel schedule, not the result inputs the
	// daemon exposes, but it is part of the submission contract — 0 and 1
	// canonicalize together, other counts differ.
	if KeyForSubmission(base, &Submission{Engine: "event-driven", Workers: 0, Horizon: 100}) !=
		KeyForSubmission(base, &Submission{Engine: "event-driven", Workers: 1, Horizon: 100}) {
		t.Error("workers 0 and 1 should canonicalize to the same key")
	}
}

func TestKeyForSubmissionCanonicalizesAliases(t *testing.T) {
	c := parseNetlist(t, keyNetlistA)
	aliased := KeyForSubmission(c, &Submission{Engine: "seq", Horizon: 50})
	canonical := KeyForSubmission(c, &Submission{Engine: "sequential", Horizon: 50})
	if aliased != canonical {
		t.Fatalf("alias seq and canonical sequential hash differently:\n %s\n %s", aliased, canonical)
	}
	off := KeyForSubmission(c, &Submission{Engine: "event", Horizon: 50, Lint: "off"})
	empty := KeyForSubmission(c, &Submission{Engine: "event-driven", Horizon: 50})
	if off != empty {
		t.Fatalf("lint \"off\" and unset hash differently:\n %s\n %s", off, empty)
	}
}

func TestSubmissionKeyLifecycle(t *testing.T) {
	lim := netlist.Limits{MaxBytes: 1 << 20, MaxNodes: 1000, MaxElems: 1000}
	keyA, subA, err := SubmissionKey([]byte(`{"netlist":`+quoteJSON(keyNetlistA)+`,"engine":"event","horizon":100}`), lim)
	if err != nil {
		t.Fatal(err)
	}
	keyB, _, err := SubmissionKey([]byte(`{"netlist":`+quoteJSON(keyNetlistB)+`,"engine":"event-driven","horizon":100}`), lim)
	if err != nil {
		t.Fatal(err)
	}
	if keyA != keyB {
		t.Fatalf("reordered netlist + aliased engine should dedup:\n %s\n %s", keyA, keyB)
	}
	if subA.Engine != "event" || subA.Horizon != 100 {
		t.Fatalf("parsed submission mangled: %+v", subA)
	}
	valid := `{"netlist":` + quoteJSON(keyNetlistA) + `,"engine":"event","horizon":100`
	if _, _, err := SubmissionKey([]byte(valid+"}\n\t "), lim); err != nil {
		t.Fatalf("trailing white space refused: %v", err)
	}
	for _, bad := range []string{
		`{"netlist": 42}`,
		valid + `} garbage`,
		valid + `}{}`,
		valid + `,"lane_strid":7}`,
		valid + `,"no_steal":true}`,
	} {
		if _, _, err := SubmissionKey([]byte(bad), lim); err == nil || !strings.HasPrefix(err.Error(), "malformed JSON body: ") {
			t.Errorf("body ending %q: err %v, want a malformed-body error", bad[max(0, len(bad)-24):], err)
		}
	}
}

// TestSubmissionWireKeys pins the body's JSON names: a fully populated
// Submission marshals to exactly the documented keys, which journals
// written by earlier daemons also use.
func TestSubmissionWireKeys(t *testing.T) {
	full := goldenSubmission
	full.Watch = []string{"q"}
	b, err := json.Marshal(&full)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(b, &fields); err != nil {
		t.Fatal(err)
	}
	want := []string{"cost_spin", "deadline_ms", "engine", "fallback", "fault_max_passes", "fault_sim",
		"fault_statuses", "horizon", "lane_stride", "lanes", "lint", "netlist", "probe_lane",
		"resume_from", "watch", "watchdog_ms", "workers"}
	var got []string
	for k := range fields {
		got = append(got, k)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("submission keys %v, want %v", got, want)
	}
}

// keyNetlistParams carries every parameter field the key serializes, in
// forms the paper circuits do not use: x/z bits, a negative seed, a wave.
const keyNetlistParams = `circuit params
node w 4
node k 4
node s 2
node sh 4
node addr 2
node data 8
node q 4
node clk 1
node rst 1
elem wave wv delay=1 out=w times=0,5,9 values=4'h3,4'b10xz,4'hf
elem const kc delay=1 out=k init=4'ha
elem slice sl delay=2 out=s in=w lo=1
elem shlk sk delay=1 out=sh in=k shift=2
elem slice as delay=1 out=addr in=k lo=0
elem rom rm delay=3 out=data in=addr mem=1,2,3,255
elem clock cg delay=1 out=clk period=10 phase=1 duty=4
elem rand rg delay=1 out=rst period=7 seed=-42
elem dffr ff delay=0 out=q in=clk,rst,w init=4'h0
`

// goldenSubmission sets every keyed option to a non-default value, each
// already in its canonical spelling. The fields the key leaves out are set
// too, so the test also proves they stay out.
var goldenSubmission = Submission{Engine: "auto", Workers: 2, Horizon: 512, CostSpin: 3, Lint: "warn",
	Fallback: true, Lanes: 128, LaneStride: 2, ProbeLane: 1, FaultSim: true, FaultMaxPasses: 4, FaultStatuses: true,
	Netlist: "ignored", DeadlineMS: 9, WatchdogMS: 9, ResumeFrom: "ignored"}

// TestCircuitKeyGolden pins the key bytes. The hex values were computed by
// the fmt-based writer this package shipped first; a fleet may mix daemon
// versions, so every later writer must reproduce them. The zeroed column
// is that writer's zero options — no engine, lint unset, workers written
// as 1 — which no canonicalized submission produces, so it is written
// through the raw serializer.
func TestCircuitKeyGolden(t *testing.T) {
	cases := []struct {
		c              *circuit.Circuit
		golden, zeroed string // under goldenSubmission and under the zero options
	}{
		{gen.GateMultiplier(gen.DefaultMultiplier()),
			"dbd54c492996444ae496e8b3a1ea25d89649b3f87f1d3acf7377f812a74ad292",
			"8db77ee6da5b2dff660d6eeedfc65d711640cc7c3b6be70c3f4b59584117e4ed"},
		{gen.FuncMultiplier(gen.DefaultMultiplier()),
			"e0c41f4223b2bce294bed48e06caf1fe41e0d9915377fc0b8d23bf570671fa6e",
			"62e87b70afd29099c5ae053a21d5ed233e5440db3ee2238239ebc21084771c2a"},
		{gen.InverterArray(gen.DefaultInverterArray()),
			"048328a3fd420e601f8adaec4905e7456998abcfbee54d50cb594849c067784e",
			"58db5b1491da193dcfef2493cda49b17ed6415e468c6d259321d85f340daddfc"},
		{gen.CPU(gen.DefaultCPU()),
			"76a7b501c9e9a97f380b9cb60d6a076e1493ba478a7a26a6a20d17435c9e6b70",
			"9b8aaf038ad550d83ca41fa2c187bff408f21a15728c9da0e6159e5663aeb24d"},
		{parseNetlist(t, keyNetlistParams),
			"64e9ee8a44ce08c1e7faebce95aba6d5ab4091c0f2f5d4afb93bae53250e981e",
			"a866d1f874a8267c66724613037cbfcac403d8c3f665ca45af523f754cf84a87"},
	}
	for _, tc := range cases {
		if got := KeyForSubmission(tc.c, &goldenSubmission); got != tc.golden {
			t.Errorf("%s: key %s, want %s", tc.c.Name, got, tc.golden)
		}
		if got := circuitKey(tc.c, &Submission{Workers: 1}); got != tc.zeroed {
			t.Errorf("%s: key under zero options %s, want %s", tc.c.Name, got, tc.zeroed)
		}
	}
}

// TestCircuitKeyAllocs: the key writer formats into one buffer, so what it
// allocates does not grow with the circuit.
func TestCircuitKeyAllocs(t *testing.T) {
	for _, c := range []*circuit.Circuit{
		gen.FuncMultiplier(gen.DefaultMultiplier()),
		gen.GateMultiplier(gen.DefaultMultiplier()),
	} {
		allocs := testing.AllocsPerRun(5, func() { KeyForSubmission(c, &goldenSubmission) })
		if allocs > 64 {
			t.Errorf("%s (%d elements): KeyForSubmission allocates %.0f times, budget 64", c.Name, len(c.Elems), allocs)
		}
	}
}

func quoteJSON(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '\n':
			b.WriteString(`\n`)
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

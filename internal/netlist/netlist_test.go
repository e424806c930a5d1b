package netlist

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/gen"
	_ "parsim/internal/seq"
	"parsim/internal/trace"
)

// roundTrip serialises and reparses a circuit, then checks the reparsed
// circuit behaves identically by comparing full simulation histories.
func roundTrip(t *testing.T, c *circuit.Circuit, horizon circuit.Time) {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatalf("write: %v", err)
	}
	c2, err := Read(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if c2.Name != c.Name {
		t.Errorf("name %q != %q", c2.Name, c.Name)
	}
	if len(c2.Nodes) != len(c.Nodes) || len(c2.Elems) != len(c.Elems) {
		t.Fatalf("size mismatch: %d/%d nodes, %d/%d elems",
			len(c2.Nodes), len(c.Nodes), len(c2.Elems), len(c.Elems))
	}
	r1 := trace.NewRecorder()
	if _, err := engine.Run(context.Background(), c, engine.Config{Engine: "sequential", Horizon: horizon, Probe: r1}); err != nil {
		t.Fatal(err)
	}
	r2 := trace.NewRecorder()
	if _, err := engine.Run(context.Background(), c2, engine.Config{Engine: "sequential", Horizon: horizon, Probe: r2}); err != nil {
		t.Fatal(err)
	}
	if d := trace.Diff(c, r1, r2); d != "" {
		t.Fatalf("round-tripped circuit behaves differently: %s", d)
	}
}

func TestRoundTripAllGenerated(t *testing.T) {
	mcfg := gen.DefaultMultiplier()
	mcfg.N = 8
	cases := []struct {
		c       *circuit.Circuit
		horizon circuit.Time
	}{
		{gen.InverterArray(gen.InverterArrayConfig{Rows: 4, Cols: 4, ActiveRows: 3, TogglePeriod: 2}), 100},
		{gen.FeedbackChain(7), 200},
		{gen.FuncMultiplier(gen.DefaultMultiplier()), 300},
		{gen.GateMultiplier(mcfg), 200},
		{gen.CPU(gen.DefaultCPU()), 700},
		{gen.RandomCircuit(3, 50), 150},
	}
	for _, tc := range cases {
		roundTrip(t, tc.c, tc.horizon)
	}
}

func TestReadBasic(t *testing.T) {
	src := `
# a tiny circuit
circuit tiny
node clk 1
node q 1
elem clock cg delay=1 out=clk period=10 phase=0 duty=5
elem not inv delay=2 out=q in=clk
`
	c, err := Read(strings.NewReader(src))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if c.Name != "tiny" || len(c.Elems) != 2 {
		t.Fatalf("parsed %v", c)
	}
	el := &c.Elems[c.ElByName["inv"]]
	if el.Kind != circuit.KindNot || el.Delay != 2 {
		t.Errorf("inv parsed wrong: %+v", el)
	}
}

var readErrorCases = []struct {
	src  string
	want string
}{
	{"node a 1", "before circuit"},
	{"circuit x\ncircuit y", "duplicate circuit"},
	{"circuit x\nnode a", "name and width"},
	{"circuit x\nnode a 1\nelem bogus e out=a", "unknown element kind"},
	{"circuit x\nnode a 1\nelem not e out=a in=missing", "undeclared node"},
	{"circuit x\nnode a 1\nelem not e out=a badattr", "bad attribute"},
	{"circuit x\nnode a 1\nelem not e out=a wat=1", "unknown attribute"},
	{"circuit x\nnode a 1\nelem const c out=a init=4'b10", "attribute"},
	{"circuit x\nwat", "unknown directive"},
	{"", "no circuit"},
	{"circuit x\nnode a 1\nelem not", "kind and name"},
	{"circuit x\nnode a 1\nelem clock cg out=a period=ten", "attribute"},
}

func TestReadErrors(t *testing.T) {
	for _, tc := range readErrorCases {
		_, err := Read(strings.NewReader(tc.src))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Read(%q) err = %v, want containing %q", tc.src, err, tc.want)
		}
	}
}

// TestReadDuplicateDeclarations: repeated node/elem names are parse
// errors that point at both the duplicate and the original line.
func TestReadDuplicateDeclarations(t *testing.T) {
	cases := []struct {
		src  string
		want []string
	}{
		{
			"circuit x\nnode a 1\nnode a 1\n",
			[]string{"netlist:3", `node "a" already declared at line 2`},
		},
		{
			"circuit x\nnode a 1\nnode b 1\nelem not g out=a in=b\nelem not g out=b in=a\n",
			[]string{"netlist:5", `element "g" already declared at line 4`},
		},
	}
	for _, tc := range cases {
		_, err := Read(strings.NewReader(tc.src))
		if err == nil {
			t.Errorf("Read(%q) accepted a duplicate declaration", tc.src)
			continue
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("Read(%q) err = %v, want containing %q", tc.src, err, want)
			}
		}
	}
}

// TestReadErrorsCarryLineNumbers: every parse-stage failure names the
// offending line as netlist:<n>.
func TestReadErrorsCarryLineNumbers(t *testing.T) {
	cases := []struct {
		src  string
		line string
	}{
		{"circuit x\nnode a\n", "netlist:2"},
		{"circuit x\nnode a 1\n# comment\nelem bogus e out=a\n", "netlist:4"},
		{"circuit x\n\n\nwat\n", "netlist:4"},
		{"circuit x\nnode a 1\nelem not e out=a in=missing\n", "netlist:3"},
	}
	for _, tc := range cases {
		_, err := Read(strings.NewReader(tc.src))
		if err == nil || !strings.Contains(err.Error(), tc.line) {
			t.Errorf("Read(%q) err = %v, want containing %q", tc.src, err, tc.line)
		}
	}
}

func TestValidationErrorsPropagate(t *testing.T) {
	// Undriven node must fail circuit validation at Build.
	src := "circuit x\nnode a 1\nnode b 1\nelem not e out=b in=a"
	if _, err := Read(strings.NewReader(src)); err == nil ||
		!strings.Contains(err.Error(), "no driver") {
		t.Errorf("err = %v", err)
	}
}

func TestSummary(t *testing.T) {
	c := gen.FeedbackChain(5)
	s := Summary(c)
	for _, want := range []string{"feedback-chain-5", "nodes:", "not", "mux2"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

// TestWriteIdempotent: write -> read -> write must produce identical bytes,
// proving the format captures everything the builder needs.
func TestWriteIdempotent(t *testing.T) {
	circuits := []*circuit.Circuit{
		gen.FeedbackChain(9),
		gen.FuncMultiplier(gen.DefaultMultiplier()),
		gen.CPU(gen.DefaultCPU()),
		gen.RandomCircuit(7, 60),
	}
	for _, c := range circuits {
		var first bytes.Buffer
		if err := Write(&first, c); err != nil {
			t.Fatal(err)
		}
		c2, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		var second bytes.Buffer
		if err := Write(&second, c2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("%s: serialisation not idempotent", c.Name)
		}
	}
}

// validNet returns a small well-formed netlist for the limit tests.
func validNet() string {
	return `circuit lim
node a 1
node b 1
node c 1
elem clock osc period=4 out=a
elem not inv1 delay=1 out=b in=a
elem not inv2 delay=1 out=c in=b
`
}

func TestReadLimitedNoLimitsMatchesRead(t *testing.T) {
	c, err := ReadLimited(strings.NewReader(validNet()), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes) != 3 || len(c.Elems) != 3 {
		t.Fatalf("got %d nodes, %d elems", len(c.Nodes), len(c.Elems))
	}
}

func TestReadLimitedByteCap(t *testing.T) {
	src := validNet()
	// Exactly at the cap parses; one byte under the size fails typed.
	if _, err := ReadLimited(strings.NewReader(src), Limits{MaxBytes: int64(len(src))}); err != nil {
		t.Fatalf("at-cap input rejected: %v", err)
	}
	_, err := ReadLimited(strings.NewReader(src), Limits{MaxBytes: int64(len(src)) - 1})
	var le *LimitError
	if !errors.As(err, &le) || le.What != "bytes" {
		t.Fatalf("want bytes LimitError, got %v", err)
	}
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("LimitError does not match ErrLimit: %v", err)
	}
}

func TestReadLimitedByteCapTruncatedTail(t *testing.T) {
	// A cap landing mid-way through a trailing comment: the scanner sees a
	// clean EOF on the truncated stream, but the parse must still fail —
	// silently returning a prefix of an oversized input would hand the
	// caller a different circuit than the one submitted.
	src := validNet() + "# trailing commentary that pushes the input past the cap\n"
	_, err := ReadLimited(strings.NewReader(src), Limits{MaxBytes: int64(len(validNet())) + 10})
	var le *LimitError
	if !errors.As(err, &le) || le.What != "bytes" {
		t.Fatalf("want bytes LimitError, got %v", err)
	}
}

func TestReadLimitedNodeAndElemCaps(t *testing.T) {
	_, err := ReadLimited(strings.NewReader(validNet()), Limits{MaxNodes: 2})
	var le *LimitError
	if !errors.As(err, &le) || le.What != "nodes" || le.Limit != 2 {
		t.Fatalf("want nodes LimitError(2), got %v", err)
	}
	_, err = ReadLimited(strings.NewReader(validNet()), Limits{MaxElems: 1})
	if !errors.As(err, &le) || le.What != "elements" || le.Limit != 1 {
		t.Fatalf("want elements LimitError(1), got %v", err)
	}
	// Caps exactly met parse fine.
	if _, err := ReadLimited(strings.NewReader(validNet()), Limits{MaxNodes: 3, MaxElems: 3}); err != nil {
		t.Fatalf("at-cap counts rejected: %v", err)
	}
}

func TestReadLimitedParseErrorsStayUntyped(t *testing.T) {
	_, err := ReadLimited(strings.NewReader("circuit x\nbogus line\n"), Limits{MaxBytes: 1 << 20})
	if err == nil || errors.Is(err, ErrLimit) {
		t.Fatalf("parse error misclassified: %v", err)
	}
}

// paperCircuits are the paper's four benchmark circuits at full size.
func paperCircuits() []*circuit.Circuit {
	return []*circuit.Circuit{
		gen.GateMultiplier(gen.DefaultMultiplier()),
		gen.FuncMultiplier(gen.DefaultMultiplier()),
		gen.InverterArray(gen.DefaultInverterArray()),
		gen.CPU(gen.DefaultCPU()),
	}
}

// TestParseStringExactErrors pins whole error strings, line numbers and
// wrapped causes included: tools grep for them, and the in-place parser
// must word them as the scanner-based one did.
func TestParseStringExactErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"circuit x y\n", "netlist:1: circuit wants one name"},
		{"\n# c\n  circuit x\r\n\tnode a\r\n", "netlist:4: node wants name and width"},
		{"circuit x\nnode a one\n", `netlist:2: bad width "one"`},
		{"circuit x\nnode a 1\nnode b 1\nnode a 2\n", `netlist:4: node "a" already declared at line 2`},
		{"circuit x\nnode a 1\nelem not g out=a in=a\n\nelem buf g out=a in=a\n", `netlist:5: element "g" already declared at line 3`},
		{"circuit x\nelem not\n", "netlist:2: elem wants kind and name"},
		{"circuit x\nelem nope g\n", `netlist:2: unknown element kind "nope"`},
		{"circuit x\nnode a 1\nelem not g out=a in=a,b\n", `netlist:3: attribute "in=a,b": undeclared node "b"`},
		{"circuit x\nnode a 1\nelem wave w out=a times=0,,2 values=1'b0\n", `netlist:3: attribute "times=0,,2": strconv.ParseInt: parsing "": invalid syntax`},
		{"circuit x\nnode a 1\nelem rom r out=a mem=1,-2\n", `netlist:3: attribute "mem=1,-2": strconv.ParseUint: parsing "-2": invalid syntax`},
		{"circuit x\nnode a 1\nelem not g out=a in=a delay\n", `netlist:3: bad attribute "delay"`},
		{"circuit x\nnode a 1\nelem not g out=a in=a color=red\n", `netlist:3: unknown attribute "color"`},
		{"circuit x\nnode a 1\n", "netlist: circuit \"x\": 1 error(s):\n  node \"a\" has no driver"},
		{"circuit x\n\u00a0frob\u2003a\n", `netlist:2: unknown directive "frob"`},
	}
	for _, tc := range cases {
		_, err := ParseString(tc.src, Limits{})
		if err == nil || err.Error() != tc.want {
			t.Errorf("ParseString(%q)\n err  %v\n want %s", tc.src, err, tc.want)
		}
	}
}

// TestParseStringAllocs: the parser cuts names out of the input and sizes
// the builder once, so a parse allocates a handful of times per element,
// not a handful of times per field.
func TestParseStringAllocs(t *testing.T) {
	for _, c := range paperCircuits() {
		var buf bytes.Buffer
		if err := Write(&buf, c); err != nil {
			t.Fatal(err)
		}
		text := buf.String()
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := ParseString(text, Limits{}); err != nil {
				t.Fatal(err)
			}
		})
		if per := allocs / float64(len(c.Elems)); per > 6 {
			t.Errorf("%s: %.0f allocations for %d elements (%.1f each), budget 6 each", c.Name, allocs, len(c.Elems), per)
		}
	}
}

// FuzzNetlist: whatever the text, the parser returns a circuit or an error
// and never panics; a limit rejection stays a typed *LimitError; and a
// circuit that parses survives Write and a second parse unchanged.
func FuzzNetlist(f *testing.F) {
	for _, c := range paperCircuits() {
		var buf bytes.Buffer
		if err := Write(&buf, c); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String(), 0, 0)
	}
	for _, tc := range readErrorCases {
		f.Add(tc.src, 0, 0)
	}
	f.Add(validNet(), len(validNet())-1, 0)
	f.Add(validNet(), 0, 2)
	f.Fuzz(func(t *testing.T, src string, maxBytes, maxDecls int) {
		lim := Limits{MaxBytes: int64(max(maxBytes, 0)), MaxNodes: max(maxDecls, 0), MaxElems: max(maxDecls, 0)}
		c, err := ParseString(src, lim)
		if err != nil {
			var le *LimitError
			if errors.Is(err, ErrLimit) != errors.As(err, &le) {
				t.Fatalf("limit rejection lost its type: %v", err)
			}
			if lim.MaxBytes > 0 && int64(len(src)) > lim.MaxBytes && (le == nil || le.What != "bytes") {
				t.Fatalf("%d bytes under a cap of %d: err = %v, want the bytes LimitError", len(src), lim.MaxBytes, err)
			}
			return
		}
		if lim.MaxNodes > 0 && len(c.Nodes) > lim.MaxNodes || lim.MaxElems > 0 && len(c.Elems) > lim.MaxElems {
			t.Fatalf("parsed %d nodes and %d elements past caps of %d", len(c.Nodes), len(c.Elems), maxDecls)
		}
		var first, second bytes.Buffer
		if err := Write(&first, c); err != nil {
			t.Fatal(err)
		}
		c2, err := ParseString(first.String(), Limits{})
		if err != nil {
			t.Fatalf("written form of a parsed circuit does not parse: %v\n%s", err, first.String())
		}
		if err := Write(&second, c2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("parse -> Write -> parse is not the identity:\n%s\nvs\n%s", first.String(), second.String())
		}
	})
}

// Package netlist reads and writes the textual circuit interchange format
// used by the command-line tools.
//
// The format is line-oriented:
//
//	# comment
//	circuit <name>
//	node <name> <width>
//	elem <kind> <name> [delay=<ticks>] [out=<n,...>] [in=<n,...>] [key=value ...]
//
// Kind-specific keys: period, phase, duty, seed (integers); lo, shift
// (integers); init (a value literal such as 8'hff or 4'b10xz); times
// (comma-separated integers); values (comma-separated value literals); mem
// (comma-separated unsigned integers).
//
// ParseString is the parser: one pass over text held as a single string,
// cutting lines and fields in place (names in the circuit are substrings
// of the input) and sizing the builder from a count of declaration lines.
// Read and ReadLimited are ParseString behind one bounded read of an
// io.Reader.
package netlist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"parsim/internal/circuit"
	"parsim/internal/logic"
)

// Write serialises the circuit.
func Write(w io.Writer, c *circuit.Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "circuit %s\n", c.Name)
	for i := range c.Nodes {
		fmt.Fprintf(bw, "node %s %d\n", c.Nodes[i].Name, c.Nodes[i].Width)
	}
	for i := range c.Elems {
		el := &c.Elems[i]
		fmt.Fprintf(bw, "elem %s %s delay=%d", circuit.KindName(el.Kind), el.Name, el.Delay)
		if len(el.Out) > 0 {
			fmt.Fprintf(bw, " out=%s", joinNodes(c, el.Out))
		}
		if len(el.In) > 0 {
			fmt.Fprintf(bw, " in=%s", joinNodes(c, el.In))
		}
		writeParams(bw, el)
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

func joinNodes(c *circuit.Circuit, ids []circuit.NodeID) string {
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = c.Nodes[id].Name
	}
	return strings.Join(names, ",")
}

func writeParams(w io.Writer, el *circuit.Element) {
	p := &el.Params
	switch el.Kind {
	case circuit.KindConst, circuit.KindDFFR:
		fmt.Fprintf(w, " init=%s", p.Init)
	case circuit.KindClock:
		fmt.Fprintf(w, " period=%d phase=%d duty=%d", p.Period, p.Phase, p.Duty)
	case circuit.KindRand, circuit.KindGray:
		fmt.Fprintf(w, " period=%d seed=%d", p.Period, p.Seed)
	case circuit.KindWave:
		times := make([]string, len(p.Times))
		values := make([]string, len(p.Values))
		for i := range p.Times {
			times[i] = strconv.FormatInt(int64(p.Times[i]), 10)
			values[i] = p.Values[i].String()
		}
		fmt.Fprintf(w, " times=%s values=%s", strings.Join(times, ","), strings.Join(values, ","))
	case circuit.KindSlice:
		fmt.Fprintf(w, " lo=%d", p.Lo)
	case circuit.KindShlK, circuit.KindShrK:
		fmt.Fprintf(w, " shift=%d", p.Shift)
	case circuit.KindRom, circuit.KindRam:
		if len(p.Mem) > 0 {
			words := make([]string, len(p.Mem))
			for i, m := range p.Mem {
				words[i] = strconv.FormatUint(m, 10)
			}
			fmt.Fprintf(w, " mem=%s", strings.Join(words, ","))
		}
	}
}

// Limits bounds untrusted netlist input. The zero value imposes no
// limits, so trusted callers keep the old Read behaviour; services parsing
// network-supplied netlists set all three fields and map the typed
// *LimitError to an HTTP 413 while ordinary parse errors map to 400.
type Limits struct {
	MaxBytes int64 // total input bytes accepted; 0 = unlimited
	MaxNodes int   // node declarations accepted; 0 = unlimited
	MaxElems int   // element declarations accepted; 0 = unlimited
}

// ErrLimit is the sentinel matched by errors.Is for every input-limit
// rejection.
var ErrLimit = errors.New("netlist: input exceeds limit")

// LimitError reports which Limits field an input exceeded. It matches
// ErrLimit via errors.Is.
type LimitError struct {
	What  string // "bytes", "nodes" or "elements"
	Limit int64
}

// Error describes the exceeded limit.
func (e *LimitError) Error() string {
	return fmt.Sprintf("netlist: input exceeds %s limit (%d)", e.What, e.Limit)
}

// Is matches ErrLimit.
func (e *LimitError) Is(target error) bool { return target == ErrLimit }

// Read parses a circuit. The returned circuit has been validated by
// circuit.Builder. Input is fully trusted: no size limits apply — use
// ReadLimited for anything that arrived over a network.
func Read(r io.Reader) (*circuit.Circuit, error) {
	return ReadLimited(r, Limits{})
}

// ReadLimited is Read for untrusted input: it draws at most one byte past
// lim.MaxBytes from r and hands the text to ParseString, so a pathological
// netlist cannot make the parser allocate unboundedly.
func ReadLimited(r io.Reader, lim Limits) (*circuit.Circuit, error) {
	var text strings.Builder
	if sized, ok := r.(interface{ Len() int }); ok {
		n := int64(sized.Len())
		if lim.MaxBytes > 0 && n > lim.MaxBytes {
			n = lim.MaxBytes + 1
		}
		text.Grow(int(n))
	}
	if lim.MaxBytes > 0 {
		// One byte past the cap: "exactly at the limit" still parses while
		// anything larger is detected without draining the input.
		r = io.LimitReader(r, lim.MaxBytes+1)
	}
	if _, err := io.Copy(&text, r); err != nil {
		return nil, err
	}
	return ParseString(text.String(), lim)
}

// ParseString parses a circuit from netlist text already in memory; the
// zero Limits imposes none. It makes one pass over s, cutting lines and
// fields in place: node and element names in the returned circuit are
// substrings of s, so the circuit keeps s alive and a caller must not hand
// in a string backed by a buffer it will reuse.
func ParseString(s string, lim Limits) (*circuit.Circuit, error) {
	if lim.MaxBytes > 0 && int64(len(s)) > lim.MaxBytes {
		return nil, &LimitError{What: "bytes", Limit: lim.MaxBytes}
	}
	p := parser{lim: lim}
	p.wantNodes, p.wantElems = countDecls(s)
	if lim.MaxNodes > 0 && p.wantNodes > lim.MaxNodes {
		p.wantNodes = lim.MaxNodes
	}
	if lim.MaxElems > 0 && p.wantElems > lim.MaxElems {
		p.wantElems = lim.MaxElems
	}
	for len(s) > 0 {
		line := s
		if nl := strings.IndexByte(s, '\n'); nl >= 0 {
			line, s = s[:nl], s[nl+1:]
		} else {
			s = ""
		}
		p.lineNo++
		if err := p.line(line); err != nil {
			return nil, err
		}
	}
	if p.b == nil {
		return nil, fmt.Errorf("netlist: no circuit line")
	}
	c, err := p.b.Build()
	if err != nil {
		return nil, fmt.Errorf("netlist: %w", err)
	}
	return c, nil
}

// countDecls estimates the node and element declarations in s from each
// line's first letter, so the builder can be sized once. Lines that turn
// out malformed only make the estimate generous.
func countDecls(s string) (nodes, elems int) {
	for len(s) > 0 {
		i := 0
		for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
		if i < len(s) {
			switch s[i] {
			case 'n':
				nodes++
			case 'e':
				elems++
			}
		}
		nl := strings.IndexByte(s[i:], '\n')
		if nl < 0 {
			break
		}
		s = s[i+nl+1:]
	}
	return nodes, elems
}

// cutField returns the first whitespace-delimited field of s and what
// follows it, with the field boundaries strings.Fields would choose.
func cutField(s string) (field, rest string) {
	i := 0
	for i < len(s) {
		n := 0
		if c := s[i]; asciiSpace(c) {
			n = 1
		} else if c >= utf8.RuneSelf {
			n = wideSpaceAt(s[i:])
		}
		if n == 0 {
			break
		}
		i += n
	}
	start := i
	for i < len(s) {
		c := s[i]
		if asciiSpace(c) || (c >= utf8.RuneSelf && wideSpaceAt(s[i:]) > 0) {
			break
		}
		i++
	}
	return s[start:i], s[i:]
}

func asciiSpace(c byte) bool { return c == ' ' || c-'\t' < 5 } // \t \n \v \f \r

// wideSpaceAt returns the byte length of the white-space character s
// starts with, or 0 when it starts with anything else.
func wideSpaceAt(s string) int {
	if r, n := utf8.DecodeRuneInString(s); unicode.IsSpace(r) {
		return n
	}
	return 0
}

// parser is the state of one ParseString call.
type parser struct {
	lim    Limits
	lineNo int
	b      *circuit.Builder
	// wantNodes and wantElems size the builder when the circuit line
	// creates it.
	wantNodes, wantElems int
	// nodeLine and elemLine hold each declaration's line by ID. The
	// builder merges repeated Node calls and defers element errors to
	// Build; in the textual format a repeated declaration is a typo, so it
	// fails fast with both locations.
	nodeLine, elemLine []int32
	// outs and ins are the port lists of the element line being parsed;
	// the builder copies them.
	outs, ins []circuit.NodeID
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("netlist:%d: %s", p.lineNo, fmt.Sprintf(format, args...))
}

// line parses one line of input.
func (p *parser) line(line string) error {
	directive, rest := cutField(line)
	if directive == "" || directive[0] == '#' {
		return nil
	}
	switch directive {
	case "circuit":
		name, rest := cutField(rest)
		if extra, _ := cutField(rest); name == "" || extra != "" {
			return p.errorf("circuit wants one name")
		}
		if p.b != nil {
			return p.errorf("duplicate circuit line")
		}
		p.b = circuit.NewBuilder(name)
		p.b.Grow(p.wantNodes, p.wantElems)
	case "node":
		if p.b == nil {
			return p.errorf("node before circuit line")
		}
		name, rest := cutField(rest)
		widthText, rest := cutField(rest)
		if extra, _ := cutField(rest); widthText == "" || extra != "" {
			return p.errorf("node wants name and width")
		}
		width, err := strconv.Atoi(widthText)
		if err != nil {
			return p.errorf("bad width %q", widthText)
		}
		if first, dup := p.b.Lookup(name); dup {
			return p.errorf("node %q already declared at line %d", name, p.nodeLine[first])
		}
		if p.lim.MaxNodes > 0 && len(p.nodeLine) >= p.lim.MaxNodes {
			return &LimitError{What: "nodes", Limit: int64(p.lim.MaxNodes)}
		}
		p.b.Node(name, width)
		p.nodeLine = append(p.nodeLine, int32(p.lineNo))
	case "elem":
		if p.b == nil {
			return p.errorf("elem before circuit line")
		}
		kindName, rest := cutField(rest)
		name, rest := cutField(rest)
		if name != "" {
			if first, dup := p.b.LookupElement(name); dup {
				return p.errorf("element %q already declared at line %d", name, p.elemLine[first])
			}
		}
		if p.lim.MaxElems > 0 && len(p.elemLine) >= p.lim.MaxElems {
			return &LimitError{What: "elements", Limit: int64(p.lim.MaxElems)}
		}
		if err := p.elem(kindName, name, rest); err != nil {
			return p.errorf("%v", err)
		}
		p.elemLine = append(p.elemLine, int32(p.lineNo))
	default:
		return p.errorf("unknown directive %q", directive)
	}
	return nil
}

// elem parses the kind, name and attributes of one elem line and declares
// the element.
func (p *parser) elem(kindName, name, attrs string) error {
	if name == "" {
		return fmt.Errorf("elem wants kind and name")
	}
	kind, ok := circuit.KindByName(kindName)
	if !ok {
		return fmt.Errorf("unknown element kind %q", kindName)
	}
	delay := circuit.Time(1)
	p.outs, p.ins = p.outs[:0], p.ins[:0]
	var params circuit.Params
	for {
		var f string
		if f, attrs = cutField(attrs); f == "" {
			break
		}
		key, val, found := strings.Cut(f, "=")
		if !found {
			return fmt.Errorf("bad attribute %q", f)
		}
		var err error
		switch key {
		case "delay":
			delay, err = parseTime(val)
		case "out":
			p.outs, err = lookupNodes(p.b, p.outs[:0], val)
		case "in":
			p.ins, err = lookupNodes(p.b, p.ins[:0], val)
		case "period":
			params.Period, err = parseTime(val)
		case "phase":
			params.Phase, err = parseTime(val)
		case "duty":
			params.Duty, err = parseTime(val)
		case "seed":
			params.Seed, err = strconv.ParseInt(val, 10, 64)
		case "lo":
			params.Lo, err = strconv.Atoi(val)
		case "shift":
			params.Shift, err = strconv.Atoi(val)
		case "init":
			params.Init, err = logic.ParseValue(val)
		case "times":
			err = eachPart(val, func(part string) error {
				t, err := parseTime(part)
				if err == nil {
					params.Times = append(params.Times, t)
				}
				return err
			})
		case "values":
			err = eachPart(val, func(part string) error {
				v, err := logic.ParseValue(part)
				if err == nil {
					params.Values = append(params.Values, v)
				}
				return err
			})
		case "mem":
			err = eachPart(val, func(part string) error {
				m, err := strconv.ParseUint(part, 10, 64)
				if err == nil {
					params.Mem = append(params.Mem, m)
				}
				return err
			})
		default:
			return fmt.Errorf("unknown attribute %q", key)
		}
		if err != nil {
			return fmt.Errorf("attribute %q: %v", f, err)
		}
	}
	p.b.AddElement(kind, name, delay, p.outs, p.ins, params)
	return nil
}

// eachPart calls f on each comma-separated part of val — the parts
// strings.Split would return — until f fails.
func eachPart(val string, f func(part string) error) error {
	for {
		part, rest, more := strings.Cut(val, ",")
		if err := f(part); err != nil || !more {
			return err
		}
		val = rest
	}
}

func parseTime(s string) (circuit.Time, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	return circuit.Time(v), err
}

// lookupNodes resolves a comma-separated node-name list into ids; the
// nodes must have been declared by earlier node lines.
func lookupNodes(b *circuit.Builder, ids []circuit.NodeID, val string) ([]circuit.NodeID, error) {
	err := eachPart(val, func(name string) error {
		id, ok := b.Lookup(name)
		if !ok {
			return fmt.Errorf("undeclared node %q", name)
		}
		ids = append(ids, id)
		return nil
	})
	return ids, err
}

// Summary formats a short human-readable report about a circuit, used by
// the netlist CLI.
func Summary(c *circuit.Circuit) string {
	s := c.Stats()
	var sb strings.Builder
	fmt.Fprintf(&sb, "circuit %s\n", c.Name)
	fmt.Fprintf(&sb, "  nodes:      %d\n", s.Nodes)
	fmt.Fprintf(&sb, "  elements:   %d (%d gates, %d functional, %d generators)\n",
		s.Elements, s.Gates, s.Functional, s.Generators)
	fmt.Fprintf(&sb, "  max fanout: %d\n", s.MaxFanout)
	fmt.Fprintf(&sb, "  total cost: %d inverter-units\n", s.TotalCost)
	kinds := map[string]int{}
	for i := range c.Elems {
		kinds[circuit.KindName(c.Elems[i].Kind)]++
	}
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&sb, "  %-10s %d\n", k, kinds[k])
	}
	return sb.String()
}

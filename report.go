package parsim

import (
	"encoding/json"
	"errors"
	"fmt"

	"parsim/internal/engine"
	"parsim/internal/logic"
)

// Algorithms returns the canonical names of every registered engine,
// sorted — the same table ParseAlgorithm, the CLIs and the parsimd daemon
// resolve names against.
func Algorithms() []string { return engine.Names() }

// ParseAlgorithm resolves an engine name or alias (case-insensitive,
// e.g. "async", "tw", "event-driven") to the Algorithm carrying its
// canonical name, through the same registry every other dispatch path uses.
func ParseAlgorithm(name string) (Algorithm, error) {
	e, err := engine.Get(name)
	if err != nil {
		return Sequential, err
	}
	return Algorithm(e.Name()), nil
}

// ResultOf maps an engine report onto the facade Result: the one mapping,
// shared by SimulateContext and the parsimd daemon, so a job's JSON result
// matches `parsim -json` byte for byte on the same run. A nil report maps
// to nil.
func ResultOf(rep *engine.Report) *Result {
	if rep == nil {
		return nil
	}
	tot := rep.Run.Totals()
	return &Result{
		Stats:         rep.Run,
		Final:         rep.Final,
		LaneFinal:     rep.LaneFinal,
		FaultCoverage: rep.FaultCoverage,
		Messages:      tot.Messages,
		Rollbacks:     tot.Rollbacks,
		Cancelled:     tot.Cancelled,
		PeakLog:       rep.PeakLog,
		Rounds:        rep.Rounds,
		Degraded:      rep.Degraded,
		Fault:         rep.Fault,
		Resumed:       rep.Resumed,
		Selected:      rep.Selected,
	}
}

// resultJSON is the stable wire form of a Result: the run-report schema
// shared by `parsim -json` and the parsimd daemon's job results. Final
// node values serialise as Verilog-style literals ("4'b10xz"); the fault,
// if any, as its message.
type resultJSON struct {
	Stats         RunStats       `json:"stats"`
	Final         []string       `json:"final,omitempty"`
	LaneFinal     [][]string     `json:"lane_final,omitempty"`
	FaultCoverage *FaultCoverage `json:"fault_coverage,omitempty"`
	Messages      int64          `json:"messages,omitempty"`
	Rollbacks     int64          `json:"rollbacks,omitempty"`
	Cancelled     int64          `json:"cancelled,omitempty"`
	PeakLog       int64          `json:"peak_log,omitempty"`
	Rounds        int64          `json:"rounds,omitempty"`
	Degraded      bool           `json:"degraded,omitempty"`
	Resumed       bool           `json:"resumed,omitempty"`
	Fault         string         `json:"fault,omitempty"`
	Selected      *Selection     `json:"selected,omitempty"`
}

// MarshalJSON serialises the result to the stable run-report schema.
func (r *Result) MarshalJSON() ([]byte, error) {
	out := resultJSON{
		Stats:         r.Stats,
		FaultCoverage: r.FaultCoverage,
		Messages:      r.Messages,
		Rollbacks:     r.Rollbacks,
		Cancelled:     r.Cancelled,
		PeakLog:       r.PeakLog,
		Rounds:        r.Rounds,
		Degraded:      r.Degraded,
		Resumed:       r.Resumed,
		Selected:      r.Selected,
	}
	if r.Fault != nil {
		out.Fault = r.Fault.Error()
	}
	if len(r.Final) > 0 {
		out.Final = encodeValues(r.Final)
	}
	if len(r.LaneFinal) > 0 {
		out.LaneFinal = make([][]string, len(r.LaneFinal))
		for l, vals := range r.LaneFinal {
			out.LaneFinal[l] = encodeValues(vals)
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON parses the run-report schema back into a Result, so
// clients of the parsimd daemon (and consumers of `parsim -json` output)
// can decode reports with this package's own types. The fault round-trips
// as an opaque error carrying the original message.
func (r *Result) UnmarshalJSON(b []byte) error {
	var in resultJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	*r = Result{
		Stats:         in.Stats,
		FaultCoverage: in.FaultCoverage,
		Messages:      in.Messages,
		Rollbacks:     in.Rollbacks,
		Cancelled:     in.Cancelled,
		PeakLog:       in.PeakLog,
		Rounds:        in.Rounds,
		Degraded:      in.Degraded,
		Resumed:       in.Resumed,
		Selected:      in.Selected,
	}
	if in.Fault != "" {
		r.Fault = errors.New(in.Fault)
	}
	if len(in.Final) > 0 {
		vals, err := decodeValues(in.Final)
		if err != nil {
			return fmt.Errorf("parsim: final: %w", err)
		}
		r.Final = vals
	}
	if len(in.LaneFinal) > 0 {
		r.LaneFinal = make([][]Value, len(in.LaneFinal))
		for l, strs := range in.LaneFinal {
			vals, err := decodeValues(strs)
			if err != nil {
				return fmt.Errorf("parsim: lane %d final: %w", l, err)
			}
			r.LaneFinal[l] = vals
		}
	}
	return nil
}

// encodeValues serialises node values as Verilog-style literals; an unset
// slot serialises as "" and parses back to the zero Value.
func encodeValues(vals []Value) []string {
	strs := make([]string, len(vals))
	for i, v := range vals {
		if v.Width() == 0 {
			continue
		}
		strs[i] = v.String()
	}
	return strs
}

func decodeValues(strs []string) ([]Value, error) {
	vals := make([]Value, len(strs))
	for i, s := range strs {
		if s == "" {
			continue
		}
		v, err := logic.ParseValue(s)
		if err != nil {
			return nil, fmt.Errorf("value %d: %w", i, err)
		}
		vals[i] = v
	}
	return vals, nil
}

package engine

import (
	"encoding/json"
	"errors"
	"fmt"

	"parsim/internal/analyze"
	"parsim/internal/logic"
	"parsim/internal/stats"
)

// Report is the one outcome of a run: what every engine returns, what
// the facade hands its callers as parsim.Result, and what `parsim -json`
// prints and the parsimd daemon serves as a job result (MarshalJSON).
// Per-algorithm counters live in Stats.PerWorker (zero where not
// applicable) and sum with Stats.Totals; only genuinely global,
// non-summable metrics get their own field.
type Report struct {
	Stats stats.Run
	// Final holds each node's value at the horizon, indexed by NodeID.
	// For a lane-engine run this is lane ProbeLane's view.
	Final []logic.Value
	// PeakLog is the peak saved-state footprint (time-warp only).
	PeakLog int64
	// Rounds counts Chandy-Misra deadlock recoveries (chandy-misra only;
	// 1 means the run never deadlocked).
	Rounds int64
	// GVTRounds counts time-warp synchronisation rounds. It is not part
	// of the encoded report.
	GVTRounds int64
	// LaneFinal holds every stimulus lane's final node values from a
	// lane-engine run, packed as the plane core holds them: two bits per
	// node bit per lane. At(lane, node) reads one value, Lane(k) decodes
	// lane k into a row indexed by NodeID, and Lane(ProbeLane) equals
	// Final. Nil for the scalar engines and for a fault-simulation run.
	LaneFinal *logic.LaneValues
	// FaultCoverage reports stuck-at coverage from a fault-simulation run
	// (Config.FaultSim); nil otherwise.
	FaultCoverage *stats.FaultCoverage
	// Degraded marks a result produced by the sequential fallback
	// (Config.Fallback) after the requested engine faulted or stalled;
	// Fault holds a *FallbackError wrapping the original engine's error.
	Degraded bool
	Fault    error
	// Resumed marks a run continued from a Config.ResumeFrom snapshot
	// rather than started at t=0.
	Resumed bool
	// Selected records the decision of an engine=auto run: which engine the
	// static profile + cost model picked, at what configuration, with the
	// full ranking and the profile that justified it. Nil for direct runs.
	Selected *Selection
}

// Choice is one ranked entry from the auto-selection cost model.
type Choice struct {
	Engine   string  `json:"engine"`
	Workers  int     `json:"workers"`
	Strategy string  `json:"strategy,omitempty"`
	Lanes    int     `json:"lanes,omitempty"`
	Span     float64 `json:"span"`
	Eligible bool    `json:"eligible"`
	Reason   string  `json:"reason,omitempty"`
}

// Selection is the outcome of cost-model-driven engine selection
// (engine=auto): the winning configuration, a confidence score from the
// span gap to the runner-up, the full per-engine ranking, and the static
// profile the prediction was computed from.
type Selection struct {
	Engine     string                  `json:"engine"`
	Workers    int                     `json:"workers"`
	Strategy   string                  `json:"strategy,omitempty"`
	Lanes      int                     `json:"lanes,omitempty"`
	Confidence float64                 `json:"confidence"`
	Ranking    []Choice                `json:"ranking,omitempty"`
	Profile    *analyze.CircuitProfile `json:"profile,omitempty"`
}

// reportJSON is the stable wire form of a Report: the run-report schema
// shared by `parsim -json` and the parsimd daemon's job results. Final
// node values serialise as Verilog-style literals ("4'b10xz"); the fault,
// if any, as its message. Messages, Rollbacks and Cancelled are the
// per-worker totals, written at the top level for readers of the schema.
type reportJSON struct {
	Stats         stats.Run            `json:"stats"`
	Final         []string             `json:"final,omitempty"`
	LaneFinal     [][]string           `json:"lane_final,omitempty"`
	FaultCoverage *stats.FaultCoverage `json:"fault_coverage,omitempty"`
	Messages      int64                `json:"messages,omitempty"`
	Rollbacks     int64                `json:"rollbacks,omitempty"`
	Cancelled     int64                `json:"cancelled,omitempty"`
	PeakLog       int64                `json:"peak_log,omitempty"`
	Rounds        int64                `json:"rounds,omitempty"`
	Degraded      bool                 `json:"degraded,omitempty"`
	Resumed       bool                 `json:"resumed,omitempty"`
	Fault         string               `json:"fault,omitempty"`
	Selected      *Selection           `json:"selected,omitempty"`
}

// MarshalJSON serialises the report to the stable run-report schema.
func (r *Report) MarshalJSON() ([]byte, error) {
	tot := r.Stats.Totals()
	out := reportJSON{
		Stats:         r.Stats,
		FaultCoverage: r.FaultCoverage,
		Messages:      tot.Messages,
		Rollbacks:     tot.Rollbacks,
		Cancelled:     tot.Cancelled,
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
	if lanes := r.LaneFinal.Lanes(); lanes > 0 {
		out.LaneFinal = make([][]string, lanes)
		for l := range out.LaneFinal {
			out.LaneFinal[l] = encodeLane(r.LaneFinal, l)
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON parses the run-report schema back into a Report, so
// clients of the parsimd daemon (and consumers of `parsim -json` output)
// can decode reports with the same type. The fault round-trips as an
// opaque error carrying the original message; the top-level totals are
// read back from the per-worker rows they were written from.
func (r *Report) UnmarshalJSON(b []byte) error {
	var in reportJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	*r = Report{
		Stats:         in.Stats,
		FaultCoverage: in.FaultCoverage,
		PeakLog:       in.PeakLog,
		Rounds:        in.Rounds,
		Degraded:      in.Degraded,
		Resumed:       in.Resumed,
		Selected:      in.Selected,
	}
	if in.Fault != "" {
		r.Fault = errors.New(in.Fault)
	}
	var err error
	if r.Final, err = decodeValues(in.Final); err != nil {
		return fmt.Errorf("parsim: final: %w", err)
	}
	if len(in.LaneFinal) > 0 {
		rows := make([][]logic.Value, len(in.LaneFinal))
		for l, strs := range in.LaneFinal {
			if rows[l], err = decodeValues(strs); err != nil {
				return fmt.Errorf("parsim: lane %d final: %w", l, err)
			}
		}
		if r.LaneFinal, err = logic.PackLanes(rows); err != nil {
			return fmt.Errorf("parsim: lane final: %w", err)
		}
	}
	return nil
}

// encodeValues serialises node values as Verilog-style literals; an unset
// slot serialises as "" and parses back to the zero Value.
func encodeValues(vals []logic.Value) []string {
	strs := make([]string, len(vals))
	for i, v := range vals {
		if v.Width() == 0 {
			continue
		}
		strs[i] = v.String()
	}
	return strs
}

// encodeLane is encodeValues over lane l of the packed values, read
// straight from the planes.
func encodeLane(lv *logic.LaneValues, l int) []string {
	strs := make([]string, lv.Nodes())
	for n := range strs {
		if v := lv.At(l, n); v.Width() != 0 {
			strs[n] = v.String()
		}
	}
	return strs
}

// decodeValues parses what encodeValues wrote; no strings decode to nil.
func decodeValues(strs []string) ([]logic.Value, error) {
	if len(strs) == 0 {
		return nil, nil
	}
	vals := make([]logic.Value, len(strs))
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

package engine

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"parsim/internal/logic"
)

// wideRows returns 65 lanes of four nodes — 1, 7 and 64 bits wide and an
// unset slot — each bit cycling through L, H, X and Z across the lanes.
func wideRows() [][]logic.Value {
	states := []logic.State{logic.L, logic.H, logic.X, logic.Z}
	bus := func(lane, width int) logic.Value {
		ss := make([]logic.State, width)
		for b := range ss {
			ss[b] = states[(lane+b)%4]
		}
		return logic.FromStates(ss)
	}
	rows := make([][]logic.Value, 65)
	for l := range rows {
		rows[l] = []logic.Value{bus(l, 1), bus(l, 7), bus(l, 64), {}}
	}
	return rows
}

// TestWideLaneFinalRoundTrip: lane_final is encoded from the packed
// values, row for row what encodeValues writes for the decoded lanes (an
// unset slot as ""), and decodes back to equal packed values and the same
// bytes.
func TestWideLaneFinalRoundTrip(t *testing.T) {
	rows := wideRows()
	lv, err := logic.PackLanes(rows)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(&Report{Final: rows[0], LaneFinal: lv})
	if err != nil {
		t.Fatal(err)
	}
	var wire struct {
		LaneFinal [][]string `json:"lane_final"`
	}
	if err := json.Unmarshal(b, &wire); err != nil {
		t.Fatal(err)
	}
	if len(wire.LaneFinal) != len(rows) {
		t.Fatalf("lane_final has %d rows, want %d", len(wire.LaneFinal), len(rows))
	}
	for l, row := range rows {
		if got, want := strings.Join(wire.LaneFinal[l], ","), strings.Join(encodeValues(row), ","); got != want {
			t.Fatalf("lane %d encodes as %s, want %s", l, got, want)
		}
	}

	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !back.LaneFinal.Equal(lv) {
		t.Fatal("decoded lane finals differ from the encoded ones")
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, b) {
		t.Fatalf("round trip changed the report\n got %s\nwant %s", again, b)
	}

	if err := json.Unmarshal([]byte(`{"lane_final":[["1'b0"],["2'b01"]]}`), &back); err == nil {
		t.Fatal("lane_final rows of different widths decoded")
	}
}

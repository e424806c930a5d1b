package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"testing"

	"parsim"
	"parsim/internal/auto"
	"parsim/internal/engine"
)

// TestProfileMatchesAuto: `parsim profile` prints the decision auto.Choose
// makes for the same flags — the winner first, then the rest of its
// ranking, at its confidence — in text and in JSON. A batched job (-lanes
// 16) on the non-unit-delay functional multiplier is the case where a
// ranking derived apart from auto named a different winner; a one-tick
// inverter-array job is one where -horizon moves the winner (the plane
// core's lowering no longer pays off).
func TestProfileMatchesAuto(t *testing.T) {
	lineRE := regexp.MustCompile(`^  \d+\. (\S+)\s+span\s+\S+\s+workers (\d+)`)
	confRE := regexp.MustCompile(`confidence ([\d.]+)\):`)
	for _, tc := range []struct {
		bench          string
		workers, lanes int
		spin, horizon  int64
	}{
		{"mult16-func", 2, 16, 0, 1000},
		{"mult16-func", 2, 0, 0, 1000},
		{"mult16-gate", 1, 0, 300, 1000},
		{"inverter-array", 4, 0, 0, 1000},
		{"inverter-array", 1, 0, 0, 1},
		{"microprocessor", 2, 16, 0, 1000},
	} {
		name := fmt.Sprintf("%s/w%d/l%d/s%d/h%d", tc.bench, tc.workers, tc.lanes, tc.spin, tc.horizon)
		c, err := loadCircuit("", tc.bench)
		if err != nil {
			t.Fatal(err)
		}
		sel, _ := auto.Choose(c, engine.Config{Workers: tc.workers, Lanes: tc.lanes, CostSpin: tc.spin, Horizon: parsim.Time(tc.horizon)})
		want := []engine.Choice{}
		for _, ch := range sel.Ranking {
			if ch.Engine == sel.Engine {
				want = append([]engine.Choice{ch}, want...)
			} else {
				want = append(want, ch)
			}
		}
		args := []string{"-bench", tc.bench, "-workers", strconv.Itoa(tc.workers),
			"-lanes", strconv.Itoa(tc.lanes), "-spin", strconv.FormatInt(tc.spin, 10)}
		if tc.horizon != 1000 {
			args = append(args, "-horizon", strconv.FormatInt(tc.horizon, 10)) // 1000 is the default
		}

		var js bytes.Buffer
		if err := runProfile(append(args, "-json"), &js); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got struct {
			Predictions []engine.Choice `json:"predictions"`
			Confidence  float64         `json:"confidence"`
		}
		if err := json.Unmarshal(js.Bytes(), &got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Confidence != sel.Confidence {
			t.Errorf("%s -json: confidence %v, auto says %v", name, got.Confidence, sel.Confidence)
		}
		if !reflect.DeepEqual(got.Predictions, want) {
			t.Errorf("%s -json: predictions\n %v\nauto ranks (winner first)\n %v", name, got.Predictions, want)
		}

		var txt bytes.Buffer
		if err := runProfile(args, &txt); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m := confRE.FindSubmatch(txt.Bytes())
		if m == nil || string(m[1]) != fmt.Sprintf("%.2f", sel.Confidence) {
			t.Errorf("%s text: confidence line %q, auto says %.2f", name, m, sel.Confidence)
		}
		var lines []string
		for _, l := range bytes.Split(txt.Bytes(), []byte("\n")) {
			if m := lineRE.FindSubmatch(l); m != nil {
				lines = append(lines, string(m[1])+" x"+string(m[2]))
			}
		}
		var wantLines []string
		for _, ch := range want {
			wantLines = append(wantLines, fmt.Sprintf("%s x%d", ch.Engine, ch.Workers))
		}
		if !slices.Equal(lines, wantLines) {
			t.Errorf("%s text: ranking %v, auto ranks (winner first) %v", name, lines, wantLines)
		}
	}
}

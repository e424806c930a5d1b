package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"time"

	"parsim"
	"parsim/internal/cluster"
)

// localOnly lists the run flags the submission body has no field for.
var localOnly = []string{"no-steal", "central", "checkpoint", "checkpoint-every", "resume", "vcd"}

// unsubmittable returns the local-only flags set on fs, so -submit can
// refuse them instead of dropping them silently.
func unsubmittable(fs *flag.FlagSet) []string {
	var set []string
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(localOnly, f.Name) {
			set = append(set, "-"+f.Name)
		}
	})
	return set
}

// submitBaseURL normalises -submit into a URL prefix.
func submitBaseURL(addr string) string {
	if strings.Contains(addr, "://") {
		return strings.TrimSuffix(addr, "/")
	}
	return "http://" + addr
}

// runSubmit ships the run to a parsimd node or fleet coordinator instead
// of simulating locally: POST the job, poll until it reaches a terminal
// state, then print the result — the JSON view with -json, or the usual
// text summary. The submission endpoint is the same on both a standalone
// node and a coordinator, so -submit works against either.
func runSubmit(addr string, c *parsim.Circuit, req *cluster.Submission, jsonOut bool) {
	var netText bytes.Buffer
	if err := parsim.WriteNetlist(&netText, c); err != nil {
		fatal(err)
	}
	req.Netlist = netText.String()

	body, err := json.Marshal(req)
	if err != nil {
		fatal(err)
	}
	client := &http.Client{Timeout: 30 * time.Second}
	base := submitBaseURL(addr)
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		fatal(fmt.Errorf("submit to %s: %w", addr, err))
	}
	rb, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	resp.Body.Close()
	if err != nil {
		fatal(fmt.Errorf("submit to %s: reading response: %w", addr, err))
	}
	switch resp.StatusCode {
	case http.StatusAccepted, http.StatusOK:
		// 202: queued, poll below. 200: a coordinator dedup hit — the view
		// already carries the finished result.
	case http.StatusTooManyRequests:
		retry := resp.Header.Get("Retry-After")
		fatal(fmt.Errorf("fleet full (429, retry after %ss): %s", retry, strings.TrimSpace(string(rb))))
	default:
		fatal(fmt.Errorf("submit rejected with status %d: %s", resp.StatusCode, strings.TrimSpace(string(rb))))
	}

	view, err := decodeView(rb)
	if err != nil {
		fatal(fmt.Errorf("malformed submit response: %w", err))
	}
	if view.ID == "" {
		fatal(fmt.Errorf("submit response carries no job id: %s", strings.TrimSpace(string(rb))))
	}
	if !jsonOut {
		fmt.Printf("submitted %s to %s\n", view.ID, addr)
	}

	for !slices.Contains([]string{"done", "failed", "cancelled"}, view.State) {
		time.Sleep(150 * time.Millisecond)
		view, err = fetchView(client, base, view.ID)
		if err != nil {
			fatal(err)
		}
	}
	printView(view, jsonOut)
}

// jobView is what -submit reads of a node's or coordinator's job view;
// raw is the response body as the daemon sent it, for -json.
type jobView struct {
	ID      string          `json:"id"`
	State   string          `json:"state"`
	Error   string          `json:"error"`
	Node    string          `json:"node"`
	Deduped bool            `json:"deduped"`
	RunMS   int64           `json:"run_ms"`
	Result  json.RawMessage `json:"result"`
	raw     []byte
}

func decodeView(body []byte) (*jobView, error) {
	v := &jobView{raw: body}
	if err := json.Unmarshal(body, v); err != nil {
		return nil, err
	}
	return v, nil
}

func fetchView(client *http.Client, base, id string) (*jobView, error) {
	resp, err := client.Get(base + "/v1/jobs/" + id)
	if err != nil {
		return nil, fmt.Errorf("polling job %s: %w", id, err)
	}
	rb, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("polling job %s: %w", id, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("polling job %s: status %d: %s", id, resp.StatusCode, strings.TrimSpace(string(rb)))
	}
	view, err := decodeView(rb)
	if err != nil {
		return nil, fmt.Errorf("polling job %s: %w", id, err)
	}
	return view, nil
}

// printView renders a terminal job view: the raw JSON with -json (the
// daemon's wire schema, indented), otherwise the same text summary a
// local run prints, decoded from the embedded result.
func printView(view *jobView, jsonOut bool) {
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(json.RawMessage(view.raw)); err != nil {
			fatal(err)
		}
		if view.State != "done" {
			os.Exit(1)
		}
		return
	}
	if view.State != "done" {
		fatal(fmt.Errorf("job %s %s: %s", view.ID, view.State, view.Error))
	}
	if view.Node != "" {
		fmt.Printf("ran on node %s", view.Node)
		if view.Deduped {
			fmt.Printf(" (served from the dedup cache)")
		}
		fmt.Println()
	}
	if view.RunMS > 0 {
		fmt.Printf("run time %s\n", time.Duration(view.RunMS)*time.Millisecond)
	}
	res := new(parsim.Result)
	if err := json.Unmarshal(view.Result, res); err != nil {
		fatal(fmt.Errorf("decoding result: %w", err))
	}
	fmt.Println(res.Stats.String())
	if res.FaultCoverage != nil {
		fmt.Println(res.FaultCoverage.String())
	}
}

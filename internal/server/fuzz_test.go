package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"parsim/internal/cluster"
)

// FuzzSubmit feeds arbitrary bodies through the node's submit handler. A
// stranger's body always gets an answer: the status is one of 200, 202,
// 400, 413 or 429 — never a panic or a 5xx — and the handler refuses as
// malformed exactly the bodies cluster.DecodeSubmission refuses. Every
// core is held for the whole call, so an admitted job waits in the queue
// and is discarded by the drain instead of running: the target is
// admission, not the engines.
func FuzzSubmit(f *testing.F) {
	cfg := Config{CoreBudget: 2, MaxQueue: 2, MaxBodyBytes: 1 << 16, MaxNodes: 64, MaxElems: 64}
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.budget.acquire(cfg.CoreBudget)
		defer func() {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			s.Drain(ctx)
		}()

		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusAccepted, http.StatusBadRequest,
			http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		if int64(len(body)) > cfg.MaxBodyBytes {
			return // refused before decoding
		}
		var refusal errorBody
		if rec.Code != http.StatusAccepted {
			if err := json.Unmarshal(rec.Body.Bytes(), &refusal); err != nil {
				t.Fatalf("status %d with an undecodable error body %q: %v", rec.Code, rec.Body, err)
			}
		}
		malformed := rec.Code == http.StatusBadRequest && strings.HasPrefix(refusal.Error, "malformed JSON body: ")
		if _, err := cluster.DecodeSubmission(body); (err != nil) != malformed {
			t.Fatalf("body %q: DecodeSubmission error %v, but the node answered %d %q", body, err, rec.Code, refusal.Error)
		}
	})
}

// FuzzJournal checks the journal's crash repair. The first input cuts a
// valid multi-job journal at an arbitrary byte — a crash mid-append leaves
// such a prefix — and readJournal must keep exactly the records whose
// lines the prefix holds in full. The second input is arbitrary bytes,
// which may be refused but must never panic. Whenever a journal loads,
// reopening it for append and writing one record must read back as the
// loaded records followed by that one.
func FuzzJournal(f *testing.F) {
	valid, full := validJournal(f)
	f.Add(uint(0), []byte(nil))
	f.Add(uint(len(valid)/2), valid[:len(valid)/2])
	f.Add(uint(len(valid)-1), []byte(`{"type":"done","job":"j-0000`+"\n{not json}\n"))
	f.Fuzz(func(t *testing.T, cut uint, raw []byte) {
		prefix := valid[:cut%uint(len(valid)+1)]
		recs, err := reopenAndAppend(t, prefix)
		if err != nil {
			t.Fatalf("journal cut at byte %d: %v", len(prefix), err)
		}
		if want := full[:bytes.Count(prefix, []byte{'\n'})]; !sameRecords(recs, want) {
			t.Fatalf("journal cut at byte %d kept %d records, want %d", len(prefix), len(recs), len(want))
		}
		reopenAndAppend(t, raw)
	})
}

// validJournal writes a three-job journal — one done after a checkpoint,
// one failed, one cancelled, their records interleaved — and returns its
// bytes with the records they hold.
func validJournal(f *testing.F) ([]byte, []journalRecord) {
	path := filepath.Join(f.TempDir(), "journal.jsonl")
	jn, err := openJournal(path, 0)
	if err != nil {
		f.Fatal(err)
	}
	req := cluster.Submission{Netlist: testNetlist, Engine: "sequential", Horizon: 100}
	for _, rec := range []journalRecord{
		{Type: recAccepted, Job: "j-000001", Seq: 1, Req: &req},
		{Type: recAccepted, Job: "j-000002", Seq: 2, Req: &req},
		{Type: recStarted, Job: "j-000001"},
		{Type: recCheckpointed, Job: "j-000001", Step: 50},
		{Type: recStarted, Job: "j-000002"},
		{Type: recAccepted, Job: "j-000003", Seq: 3, Req: &req},
		{Type: recDone, Job: "j-000001", Result: json.RawMessage(`{"final":[]}`)},
		{Type: recFailed, Job: "j-000002", Error: "deadline exceeded"},
		{Type: recCancelled, Job: "j-000003", Error: "cancelled"},
	} {
		if err := jn.append(rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := jn.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	recs, _, err := readJournal(path)
	if err != nil {
		f.Fatal(err)
	}
	return data, recs
}

// reopenAndAppend loads data as a journal the way a restarting daemon
// does, appends one record and checks the journal then reads back as the
// loaded records followed by the new one. It returns the loaded records,
// or the error that refused data.
func reopenAndAppend(t *testing.T, data []byte) ([]journalRecord, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, intact, err := readJournal(path)
	if err != nil {
		return nil, err
	}
	jn, err := openJournal(path, intact)
	if err != nil {
		t.Fatal(err)
	}
	if err := jn.append(journalRecord{Type: recStarted, Job: "j-999999"}); err != nil {
		t.Fatal(err)
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}
	after, _, err := readJournal(path)
	if err != nil {
		t.Fatalf("journal refused after the repair and one append: %v", err)
	}
	if n := len(after) - 1; n != len(recs) || !sameRecords(after[:n], recs) ||
		after[n].Type != recStarted || after[n].Job != "j-999999" {
		t.Fatalf("after the repair and one append the journal reads back %d records, want the %d loaded and the new one", len(after), len(recs))
	}
	return recs, nil
}

// sameRecords reports whether two record lists are equal, nil and empty
// alike.
func sameRecords(a, b []journalRecord) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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

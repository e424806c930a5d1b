package cluster

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestCoordinatorKeysVerbatimBodyOnce: the coordinator parses a dedupable
// body the first time it sees those bytes and never again; a re-encoded
// twin is parsed but still lands on the same key, and bodies that are
// refused or carry a watch list are not remembered.
func TestCoordinatorKeysVerbatimBodyOnce(t *testing.T) {
	c := NewCoordinator(Config{CacheEntries: 8})
	defer c.Close()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	parses := func(f func()) int64 {
		before := submissionKeyRuns.Load()
		f()
		return submissionKeyRuns.Load() - before
	}

	bodyA := `{"netlist":` + quoteJSON(keyNetlistA) + `,"engine":"event","horizon":100}`
	bodyB := `{"horizon":100,"engine":"event-driven","netlist":` + quoteJSON(keyNetlistB) + `}`

	// No member has joined, so routing answers 503 — after the key is made.
	if n := parses(func() {
		for i := 0; i < 3; i++ {
			if status := post(bodyA); status != http.StatusServiceUnavailable {
				t.Fatalf("submission %d to an empty fleet: status %d, want 503", i, status)
			}
		}
	}); n != 1 {
		t.Errorf("three verbatim submissions were keyed in full %d times, want 1", n)
	}

	keyA, dedupable, err := c.keyFor([]byte(bodyA))
	if err != nil || !dedupable {
		t.Fatalf("keyFor(bodyA) = %q, %v, %v", keyA, dedupable, err)
	}
	var keyB string
	if n := parses(func() { keyB, _, err = c.keyFor([]byte(bodyB)) }); n != 1 || err != nil {
		t.Errorf("re-encoded twin: keyed in full %d times (err %v), want once", n, err)
	}
	if keyA != keyB {
		t.Errorf("re-encoded twin got another key:\n %s\n %s", keyA, keyB)
	}

	watch := `{"netlist":` + quoteJSON(keyNetlistA) + `,"engine":"event","horizon":100,"watch":["q"]}`
	if n := parses(func() {
		for i := 0; i < 2; i++ {
			if _, dedupable, err := c.keyFor([]byte(watch)); err != nil || dedupable {
				t.Fatalf("watch body: dedupable %v, err %v", dedupable, err)
			}
		}
	}); n != 2 {
		t.Errorf("watch body keyed in full %d times over two submissions, want 2", n)
	}

	bad := `{"netlist":"circuit x\nwat\n","engine":"event","horizon":100}`
	if n := parses(func() {
		for i := 0; i < 2; i++ {
			if status := post(bad); status != http.StatusBadRequest {
				t.Fatalf("malformed netlist: status %d, want 400", status)
			}
		}
	}); n != 2 {
		t.Errorf("refused body keyed %d times over two submissions, want 2 (it must not be remembered)", n)
	}
}

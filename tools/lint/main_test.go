package main

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// apply parses src and runs every registered analyzer over it.
func apply(t *testing.T, src string) []Diagnostic {
	t.Helper()
	return applyAs(t, "src.go", src)
}

// applyAs parses src under the given filename — the path-scoped analyzers
// (ctxpoll, globalrand) only fire on files under internal/.
func applyAs(t *testing.T, filename, src string) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		diags = append(diags, a.Run(fset, f)...)
	}
	return diags
}

func codes(diags []Diagnostic) []string {
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = d.Code
	}
	return out
}

func TestLegacyAtomicFlagged(t *testing.T) {
	src := `package p

import "sync/atomic"

type W struct{ Evals int64 }

func bump(w *W) { atomic.AddInt64(&w.Evals, 1) }
`
	diags := apply(t, src)
	found := false
	for _, d := range diags {
		if d.Code == "legacyatomic" && strings.Contains(d.Msg, "atomic.AddInt64") {
			found = true
		}
	}
	if !found {
		t.Fatalf("legacy atomic call not flagged: %v", codes(diags))
	}
}

func TestRenamedImportStillFlagged(t *testing.T) {
	src := `package p

import a "sync/atomic"

var x int64

func bump() { a.AddInt64(&x, 1) }
`
	diags := apply(t, src)
	if len(diags) == 0 || diags[0].Code != "legacyatomic" {
		t.Fatalf("renamed sync/atomic import not tracked: %v", codes(diags))
	}
}

func TestTypedAtomicsClean(t *testing.T) {
	src := `package p

import "sync/atomic"

type W struct{ evals atomic.Int64 }

func bump(w *W) { w.evals.Add(1) }

func read(w *W) int64 { return w.evals.Load() }
`
	if diags := apply(t, src); len(diags) != 0 {
		t.Fatalf("typed atomics flagged: %+v", diags)
	}
}

func TestMixedAccessFlagged(t *testing.T) {
	src := `package p

import "sync/atomic"

type W struct{ Evals int64 }

func bump(w *W) {
	atomic.AddInt64(&w.Evals, 1)
	w.Evals++
}
`
	diags := apply(t, src)
	found := false
	for _, d := range diags {
		if d.Code == "mixedatomic" && strings.Contains(d.Msg, "w.Evals") {
			found = true
		}
	}
	if !found {
		t.Fatalf("mixed atomic/plain access not flagged: %v", codes(diags))
	}
}

func TestMixedAccessSeparateLvaluesClean(t *testing.T) {
	src := `package p

import "sync/atomic"

type W struct{ Evals, Steals int64 }

func bump(w *W) {
	atomic.AddInt64(&w.Evals, 1)
	w.Steals++ // different field: no mix
}
`
	for _, d := range apply(t, src) {
		if d.Code == "mixedatomic" {
			t.Fatalf("distinct lvalues flagged as mixed: %+v", d)
		}
	}
}

func TestCounterCopyFlagged(t *testing.T) {
	src := `package p

type W struct{ Evals int64 }

type Run struct{ PerWorker []W }

func bump(r *Run) {
	for _, w := range r.PerWorker {
		w.Evals++
	}
}
`
	diags := apply(t, src)
	if len(diags) != 1 || diags[0].Code != "countercopy" {
		t.Fatalf("lost range-copy update not flagged: %v", codes(diags))
	}
	if !strings.Contains(diags[0].Msg, "w.Evals") {
		t.Errorf("diagnostic does not name the lvalue: %s", diags[0].Msg)
	}
}

func TestCounterCopyIndexedClean(t *testing.T) {
	src := `package p

type W struct{ Evals int64 }

type Run struct{ PerWorker []W }

func bump(r *Run) {
	for i := range r.PerWorker {
		r.PerWorker[i].Evals++
	}
	for _, w := range r.PerWorker {
		_ = w.Evals // reads of the copy are fine
	}
}
`
	for _, d := range apply(t, src) {
		if d.Code == "countercopy" {
			t.Fatalf("indexed/read-only access flagged: %+v", d)
		}
	}
}

func TestRespWriteFlagged(t *testing.T) {
	src := `package p

import (
	"fmt"
	"net/http"
)

func handler(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "hello")
	w.WriteHeader(http.StatusInternalServerError) // dropped: body already sent
}
`
	diags := apply(t, src)
	found := false
	for _, d := range diags {
		if d.Code == "respwrite" && strings.Contains(d.Msg, "w.WriteHeader") {
			found = true
		}
	}
	if !found {
		t.Fatalf("status-after-body not flagged: %v", codes(diags))
	}
}

func TestRespWriteDirectWriteFlagged(t *testing.T) {
	src := `package p

import "net/http"

func handler(w http.ResponseWriter, r *http.Request) {
	w.Write([]byte("oops"))
	w.WriteHeader(404)
}
`
	diags := apply(t, src)
	if len(diags) != 1 || diags[0].Code != "respwrite" {
		t.Fatalf("w.Write before WriteHeader not flagged: %v", codes(diags))
	}
}

func TestRespWriteCorrectOrderClean(t *testing.T) {
	src := `package p

import (
	"fmt"
	"net/http"
)

func handler(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	w.WriteHeader(http.StatusTeapot)
	fmt.Fprintln(w, "short and stout")
}

func implicit(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "implicit 200 is fine without WriteHeader")
}

func notAHandler(n int) int { return n + 1 }
`
	for _, d := range apply(t, src) {
		if d.Code == "respwrite" {
			t.Fatalf("correct status-then-body order flagged: %+v", d)
		}
	}
}

// The cluster coordinator's handlers follow a helper-based shape: a
// writeJSON(w, status, v) helper owns the status-then-body order, and
// rejections set Retry-After on the header before delegating. Pin down
// that respwrite accepts that shape — helpers with a ResponseWriter
// parameter are analyzed too.
func TestRespWriteFleetHelperClean(t *testing.T) {
	src := `package p

import (
	"fmt"
	"net/http"
)

func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func reject(w http.ResponseWriter, status int, msg string) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, []byte(fmt.Sprintf("{%q:%q}", "error", msg)))
}

func handleSubmit(w http.ResponseWriter, r *http.Request) {
	reject(w, http.StatusTooManyRequests, "fleet full")
}
`
	for _, d := range apply(t, src) {
		if d.Code == "respwrite" {
			t.Fatalf("helper-based status-then-body shape flagged: %+v", d)
		}
	}
}

// A proxy-style handler that relays an upstream body and only then tries
// to forward the upstream status: the io.Copy commits an implicit 200, so
// the later WriteHeader is dropped. This is the bug shape the cluster's
// poll-proxy handlers must avoid.
func TestRespWriteProxyStatusAfterCopyFlagged(t *testing.T) {
	src := `package p

import (
	"io"
	"net/http"
)

func proxy(w http.ResponseWriter, r *http.Request, resp *http.Response) {
	io.Copy(w, resp.Body)
	w.WriteHeader(resp.StatusCode) // dropped: body already relayed
}
`
	diags := apply(t, src)
	found := false
	for _, d := range diags {
		if d.Code == "respwrite" && strings.Contains(d.Msg, "w.WriteHeader") {
			found = true
		}
	}
	if !found {
		t.Fatalf("status-after-proxy-copy not flagged: %v", codes(diags))
	}
}

// A handler that spools a relayed body into a writable file must not
// discard the Close error — a delayed write failure would silently
// truncate the spooled result. Mirrors the requeue path's snapshot
// handling, where every writable close is checked.
func TestClosecheckSpoolingHandlerFlagged(t *testing.T) {
	src := `package p

import (
	"io"
	"net/http"
	"os"
)

func spool(w http.ResponseWriter, r *http.Request) {
	f, err := os.Create("spool.json")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer f.Close()
	io.Copy(f, r.Body)
}
`
	diags := apply(t, src)
	found := false
	for _, d := range diags {
		if d.Code == "closecheck" && strings.Contains(d.Msg, "defer f.Close()") {
			found = true
		}
	}
	if !found {
		t.Fatalf("discarded spool close not flagged: %v", codes(diags))
	}
}

func TestCtxpollUnboundedLoopFlagged(t *testing.T) {
	src := `package p

type kern struct{}

func (kern) Eval(id int) {}

func run(k kern) {
	for {
		k.Eval(0) // never polls: cannot be cancelled
	}
}
`
	diags := applyAs(t, "internal/fake/engine.go", src)
	if len(diags) != 1 || diags[0].Code != "ctxpoll" {
		t.Fatalf("unpollable hot loop not flagged: %v", codes(diags))
	}
}

func TestCtxpollHorizonLoopFlagged(t *testing.T) {
	src := `package p

type cfg struct{ Horizon int64 }

type kern struct{}

func (kern) Eval(id int) {}

func run(k kern, c cfg) {
	for now := int64(0); now <= c.Horizon; now++ {
		k.Eval(0)
	}
}
`
	diags := applyAs(t, "internal/fake/engine.go", src)
	if len(diags) != 1 || diags[0].Code != "ctxpoll" {
		t.Fatalf("horizon-driven loop without poll not flagged: %v", codes(diags))
	}
}

func TestCtxpollPollingLoopClean(t *testing.T) {
	src := `package p

type sup struct{}

func (sup) Cancelled() bool { return false }

type kern struct{}

func (kern) Eval(id int) {}

func run(k kern, s sup) {
	for {
		if s.Cancelled() {
			return
		}
		k.Eval(0)
	}
}

func bounded(k kern, lanes int) {
	for l := 0; l < lanes; l++ { // bounded by data, not the horizon
		k.Eval(l)
	}
}
`
	for _, d := range applyAs(t, "internal/fake/engine.go", src) {
		if d.Code == "ctxpoll" {
			t.Fatalf("polling or bounded loop flagged: %+v", d)
		}
	}
}

func TestCtxpollOutsideInternalIgnored(t *testing.T) {
	src := `package p

type kern struct{}

func (kern) Eval(id int) {}

func run(k kern) {
	for {
		k.Eval(0)
	}
}
`
	for _, d := range applyAs(t, "cmd/fake/main.go", src) {
		if d.Code == "ctxpoll" {
			t.Fatalf("non-internal file flagged: %+v", d)
		}
	}
}

func TestGlobalRandFlagged(t *testing.T) {
	src := `package p

import "math/rand"

func pick(n int) int { return rand.Intn(n) }

func seed() { rand.Seed(42) }
`
	diags := applyAs(t, "internal/fake/gen.go", src)
	n := 0
	for _, d := range diags {
		if d.Code == "globalrand" {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("want 2 globalrand findings (Intn, Seed), got %v", codes(diags))
	}
}

func TestGlobalRandSeededSourceClean(t *testing.T) {
	src := `package p

import "math/rand"

func pick(seed int64, n int) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(n)
}
`
	for _, d := range applyAs(t, "internal/fake/gen.go", src) {
		if d.Code == "globalrand" {
			t.Fatalf("seeded local source flagged: %+v", d)
		}
	}
}

func TestGlobalRandOutsideInternalIgnored(t *testing.T) {
	src := `package p

import "math/rand"

func pick(n int) int { return rand.Intn(n) }
`
	for _, d := range applyAs(t, "tools/fake/main.go", src) {
		if d.Code == "globalrand" {
			t.Fatalf("non-internal file flagged: %+v", d)
		}
	}
}

// handRolledGang is the worker launch engine.Gang replaced in every
// engine package.
const handRolledGang = `package p

import "sync"

type sup struct{}

func (*sup) Recover(w int, where string) {}

func launch(g *sup, p int, body func(int)) {
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer g.Recover(w, "step loop")
			body(w)
		}(w)
	}
	wg.Wait()
}
`

func TestGangHandRolledFlagged(t *testing.T) {
	for _, file := range []string{"internal/vector/vector.go", "cmd/fake/main.go"} {
		diags := applyAs(t, file, handRolledGang)
		if len(diags) != 1 || diags[0].Code != "gang" {
			t.Errorf("%s: hand-rolled gang not flagged: %v", file, codes(diags))
		}
	}
}

func TestGangEngineLayerClean(t *testing.T) {
	for _, file := range []string{"internal/engine/lifecycle.go", "internal/guard/guard.go"} {
		for _, d := range applyAs(t, file, handRolledGang) {
			if d.Code == "gang" {
				t.Errorf("%s: the engine layer's own gang flagged: %+v", file, d)
			}
		}
	}
	// A Recover that is called, not deferred, is no worker launch.
	src := `package p

type sup struct{}

func (*sup) Recover(w int, where string) {}

func f(g *sup) { g.Recover(0, "x") }
`
	for _, d := range applyAs(t, "internal/fake/engine.go", src) {
		if d.Code == "gang" {
			t.Errorf("undeferred Recover flagged: %+v", d)
		}
	}
}

func TestFacadeImportFlagged(t *testing.T) {
	for _, src := range []string{
		"package server\n\nimport \"parsim\"\n\nvar _ parsim.Result\n",
		"package server\n\nimport (\n\t\"fmt\"\n\n\t_ \"parsim\"\n)\n\nvar _ = fmt.Sprint\n",
		"package server\n\nimport p \"parsim\"\n\nvar _ p.Result\n",
	} {
		diags := applyAs(t, "internal/server/server.go", src)
		if len(diags) != 1 || diags[0].Code != "facadeimport" {
			t.Errorf("facade import from internal/ not flagged: %v\n%s", codes(diags), src)
		}
	}
}

func TestFacadeImportElsewhereClean(t *testing.T) {
	cases := []struct{ file, src string }{
		// The commands and examples are the facade's callers.
		{"cmd/parsim/main.go", "package main\n\nimport \"parsim\"\n\nvar _ parsim.Result\n"},
		{"examples/quickstart/main.go", "package main\n\nimport \"parsim\"\n\nvar _ parsim.Result\n"},
		// An internal package imports the layer the facade re-exports.
		{"internal/server/server.go", "package server\n\nimport \"parsim/internal/engine\"\n\nvar _ engine.Report\n"},
	}
	for _, tc := range cases {
		for _, d := range applyAs(t, tc.file, tc.src) {
			if d.Code == "facadeimport" {
				t.Errorf("%s: flagged: %+v", tc.file, d)
			}
		}
	}
}

// TestRepoIsClean runs the analyzers over the real module — the check
// `make lint` performs — pinning down that the codebase convention
// (typed atomics, indexed counter writes) holds everywhere.
func TestRepoIsClean(t *testing.T) {
	files, err := collect("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("collect found no files — wrong working directory?")
	}
	diags, err := run(files)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s: %s", d.Pos, d.Code, d.Msg)
	}
}

func TestClosecheckDeferOnCreate(t *testing.T) {
	src := `package p

import "os"

func write(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(data)
	return err
}
`
	diags := apply(t, src)
	found := false
	for _, d := range diags {
		if d.Code == "closecheck" && strings.Contains(d.Msg, "defer f.Close()") {
			found = true
		}
	}
	if !found {
		t.Fatalf("defer f.Close() on a created file not flagged: %v", codes(diags))
	}
}

func TestClosecheckBareSyncAndClose(t *testing.T) {
	src := `package p

import "os"

func write(path string) {
	f, _ := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	f.Sync()
	f.Close()
}
`
	diags := apply(t, src)
	n := 0
	for _, d := range diags {
		if d.Code == "closecheck" {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("want 2 closecheck findings (Sync and Close), got %d: %v", n, codes(diags))
	}
}

func TestClosecheckCleanPatterns(t *testing.T) {
	src := `package p

import "os"

// Checked close, explicit discard on the failing path, read-only files
// and non-file idents must all stay silent.
func write(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func read(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return nil
}
`
	diags := apply(t, src)
	for _, d := range diags {
		if d.Code == "closecheck" {
			t.Fatalf("clean pattern flagged: %s: %s", d.Pos, d.Msg)
		}
	}
}

func TestClosecheckReadOnlyNameCollision(t *testing.T) {
	// The same ident opens read-only in one block and writable in a later
	// one; only the close after the writable binding may be flagged.
	src := `package p

import "os"

func both(a, b string) {
	{
		f, _ := os.Open(a)
		defer f.Close()
	}
	{
		f, _ := os.Create(b)
		defer f.Close()
	}
}
`
	diags := apply(t, src)
	n := 0
	for _, d := range diags {
		if d.Code == "closecheck" {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("want exactly 1 closecheck finding (the writable close), got %d: %v", n, codes(diags))
	}
}

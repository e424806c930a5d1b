package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"parsim/internal/circuit"
	"parsim/internal/guard"
	"parsim/internal/logic"
)

// fake is a minimal engine recording what it was invoked with.
type fake struct {
	name string
	got  *Config
}

func (f *fake) Name() string { return f.name }

func (f *fake) Run(ctx context.Context, c *circuit.Circuit, cfg Config) (*Report, error) {
	*f.got = cfg
	return &Report{Final: []logic.Value{}}, nil
}

func testCircuit(t *testing.T) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder("t")
	n := b.Bit("n")
	b.Const("c", n, logic.V(1, 1))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRegistryResolution(t *testing.T) {
	var got Config
	Register(&fake{name: "fake-engine", got: &got}, "fk")

	for _, name := range []string{"fake-engine", "FAKE-ENGINE", " fk ", "Fk"} {
		e, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if e.Name() != "fake-engine" {
			t.Errorf("Get(%q).Name() = %q", name, e.Name())
		}
	}

	if _, err := Get("no-such-algorithm"); err == nil {
		t.Error("unknown name resolved")
	} else if !strings.Contains(err.Error(), "fake-engine") {
		t.Errorf("unknown-name error does not list registered engines: %v", err)
	}

	found := false
	for _, n := range Names() {
		if n == "fake-engine" {
			found = true
		}
	}
	if !found {
		t.Errorf("Names() = %v missing fake-engine", Names())
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	Register(&fake{name: "dup-engine", got: &Config{}})
	Register(&fake{name: "dup-engine", got: &Config{}})
}

func TestRunValidation(t *testing.T) {
	var got Config
	Register(&fake{name: "val-engine", got: &got}, "val")
	c := testCircuit(t)

	if _, err := Run(context.Background(), nil, Config{Engine: "val", Horizon: 1}); err == nil ||
		!strings.Contains(err.Error(), "nil circuit") {
		t.Errorf("nil circuit: %v", err)
	}
	if _, err := Run(context.Background(), c, Config{Engine: "val", Horizon: -5}); err == nil ||
		!strings.Contains(err.Error(), "negative horizon -5") {
		t.Errorf("negative horizon: %v", err)
	}
	if _, err := Run(context.Background(), c, Config{Engine: "val", Horizon: 1, Workers: -3}); err == nil ||
		!strings.Contains(err.Error(), "invalid worker count -3") {
		t.Errorf("negative workers: %v", err)
	}
	if _, err := Run(context.Background(), c, Config{Engine: "nope", Horizon: 1}); err == nil {
		t.Error("unknown algorithm accepted")
	}

	// Workers 0 defaults to 1, and a nil ctx is tolerated.
	if _, err := Run(nil, c, Config{Engine: "val", Horizon: 1}); err != nil { //nolint:staticcheck
		t.Fatal(err)
	}
	if got.Workers != 1 {
		t.Errorf("defaulted workers = %d, want 1", got.Workers)
	}
}

func TestLintModeParse(t *testing.T) {
	cases := []struct {
		in   string
		want LintMode
		ok   bool
	}{
		{"off", LintOff, true},
		{"", LintOff, true},
		{"warn", LintWarn, true},
		{"WARN", LintWarn, true},
		{" strict ", LintStrict, true},
		{"pedantic", LintOff, false},
	}
	for _, tc := range cases {
		got, err := ParseLintMode(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseLintMode(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseLintMode(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	// String round-trips through Parse for every mode.
	for _, m := range []LintMode{LintOff, LintWarn, LintStrict} {
		back, err := ParseLintMode(m.String())
		if err != nil || back != m {
			t.Errorf("round-trip %v -> %q -> %v (err %v)", m, m.String(), back, err)
		}
	}
}

func TestLintGateInRunEngine(t *testing.T) {
	var got Config
	Register(&fake{name: "lint-engine", got: &got})
	c := testCircuit(t)

	// A clean circuit passes even under strict.
	if _, err := Run(context.Background(), c, Config{Engine: "lint-engine", Horizon: 1, Lint: LintStrict}); err != nil {
		t.Fatalf("strict lint rejected clean circuit: %v", err)
	}

	// A zero-delay ring is refused under warn and strict but runs with
	// lint off (the fake engine ignores the circuit entirely).
	b := circuit.NewBuilder("ring")
	n0, n1 := b.Bit("n0"), b.Bit("n1")
	b.Gate(circuit.KindNot, "a", 0, n1, n0)
	b.Gate(circuit.KindNot, "b", 0, n0, n1)
	ring, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []LintMode{LintWarn, LintStrict} {
		if _, err := Run(context.Background(), ring, Config{Engine: "lint-engine", Horizon: 1, Lint: mode}); err == nil {
			t.Errorf("lint %v accepted a zero-delay ring", mode)
		} else if !strings.Contains(err.Error(), "zero-delay-cycle") {
			t.Errorf("lint %v error does not name the diagnostic: %v", mode, err)
		}
	}
	if _, err := Run(context.Background(), ring, Config{Engine: "lint-engine", Horizon: 1, Lint: LintOff}); err != nil {
		t.Errorf("lint off still rejected the circuit: %v", err)
	}
}

// pollEngine spins on the supervisor's cancellation flag, the way an
// engine's hot loop does, and returns a complete-looking Report.
type pollEngine struct{}

func (pollEngine) Name() string { return "poll-engine" }

func (pollEngine) Run(_ context.Context, _ *circuit.Circuit, cfg Config) (*Report, error) {
	for deadline := time.Now().Add(10 * time.Second); !cfg.Guard().Cancelled(); {
		if time.Now().After(deadline) {
			return nil, errors.New("cancellation flag never set")
		}
		time.Sleep(time.Millisecond)
	}
	return &Report{}, nil
}

func TestCancelFlag(t *testing.T) {
	// The flag the workers poll lives on the run's supervisor: nil-safe,
	// set by cancelling the run context, and the engine layer — not the
	// engine — pairs the partial Report with ctx.Err().
	var none *guard.Supervisor
	if none.Cancelled() {
		t.Error("a nil supervisor reads cancelled")
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(5*time.Millisecond, cancel)
	rep, err := RunEngine(ctx, pollEngine{}, testCircuit(t), Config{Horizon: 1})
	if !errors.Is(err, context.Canceled) || rep == nil {
		t.Fatalf("cancelled run returned (%v, %v), want a Report and context.Canceled", rep, err)
	}

	// A run that ends uncancelled leaves the flag clear, also after Stop
	// releases the run context.
	sup := guard.New("t", guard.Options{})
	sup.Attach(context.Background())
	sup.Stop()
	time.Sleep(5 * time.Millisecond)
	if sup.Cancelled() {
		t.Error("releasing the run context set the cancellation flag")
	}
}

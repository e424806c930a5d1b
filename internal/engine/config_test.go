package engine_test

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"parsim/internal/circuit"
	"parsim/internal/engine"
	"parsim/internal/logic"
	_ "parsim/internal/seq"
)

// unbound lists the Config fields that cannot change a Checkpointer's
// results — they name, observe, supervise or locate the run, or tune an
// engine that does not checkpoint — so a snapshot's identity leaves them
// out. The engine is bound all the same, by its canonical name.
var unbound = []string{"Engine", "Probe", "Lint", "Watchdog", "Fallback", "Checkpoint", "ResumeFrom",
	"Chaos", "NoSteal", "CentralQueue", "NoLookahead", "GateLookahead"}

// TestConfigFieldsClassified: every exported Config field either changes
// the checkpoint identity resolveCheckpoint binds a snapshot to, or is
// listed in unbound. A new field that is neither fails here, so a resume
// can never silently continue a snapshot written under other options.
func TestConfigFieldsClassified(t *testing.T) {
	typ := reflect.TypeOf(engine.Config{})
	for _, name := range unbound {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("unbound lists %s, which Config does not have", name)
		}
	}
	base := engine.Identity("compiled", &engine.Config{})
	for i := range typ.NumField() {
		f := typ.Field(i)
		if !f.IsExported() || slices.Contains(unbound, f.Name) {
			continue
		}
		var cfg engine.Config
		switch v := reflect.ValueOf(&cfg).Elem().Field(i); v.Kind() {
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int64:
			v.SetInt(2)
		default:
			t.Errorf("Config.%s (%s) is neither in the checkpoint identity nor listed as unbound", f.Name, f.Type)
			continue
		}
		if engine.Identity("compiled", &cfg) == base {
			t.Errorf("Config.%s is neither in the checkpoint identity nor listed as unbound", f.Name)
		}
	}
}

// TestRunResolvesEngine: Run takes the engine from Config.Engine — ""
// is sequential, an alias runs its canonical engine, and an unknown name
// is the registry's error.
func TestRunResolvesEngine(t *testing.T) {
	b := circuit.NewBuilder("t")
	b.Const("c", b.Bit("n"), logic.V(1, 1))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "seq", " SEQ ", "sequential"} {
		rep, err := engine.Run(context.Background(), c, engine.Config{Engine: name, Horizon: 4})
		if err != nil {
			t.Fatalf("Engine %q: %v", name, err)
		}
		if rep.Stats.Algorithm != "sequential" {
			t.Errorf("Engine %q ran %s, want sequential", name, rep.Stats.Algorithm)
		}
	}
	_, err = engine.Run(context.Background(), c, engine.Config{Engine: "warp-9", Horizon: 4})
	_, want := engine.Get("warp-9")
	if err == nil || err.Error() != want.Error() ||
		!strings.HasPrefix(err.Error(), `parsim: unknown algorithm "warp-9" (have `) {
		t.Errorf("unknown engine: %v, want %v", err, want)
	}
}

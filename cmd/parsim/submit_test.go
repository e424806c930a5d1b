package main

import (
	"flag"
	"io"
	"slices"
	"testing"
)

// TestUnsubmittableFlags: -submit refuses exactly the run flags the job
// body cannot carry, whatever value they were given.
func TestUnsubmittableFlags(t *testing.T) {
	newSet := func() *flag.FlagSet {
		fs := flag.NewFlagSet("parsim", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		for _, name := range []string{"vcd", "checkpoint", "resume", "watch", "lint", "submit"} {
			fs.String(name, "", "")
		}
		for _, name := range []string{"no-steal", "central", "fallback", "faults", "json"} {
			fs.Bool(name, false, "")
		}
		for _, name := range []string{"checkpoint-every", "workers", "lanes"} {
			fs.Int(name, 0, "")
		}
		for _, name := range []string{"timeout", "watchdog"} {
			fs.Duration(name, 0, "")
		}
		return fs
	}
	cases := []struct {
		args []string
		want []string
	}{
		{[]string{"-submit", "h:1", "-workers", "2", "-watch", "q", "-lint", "warn", "-fallback",
			"-faults", "-lanes", "8", "-timeout", "1s", "-watchdog", "1s", "-json"}, nil},
		{[]string{"-submit", "h:1", "-vcd", "out.vcd"}, []string{"-vcd"}},
		{[]string{"-no-steal=false", "-central",
			"-checkpoint", "a.ckpt", "-checkpoint-every", "8", "-resume", "b.ckpt", "-vcd", "c.vcd"},
			[]string{"-central", "-checkpoint", "-checkpoint-every", "-no-steal", "-resume", "-vcd"}},
	}
	for _, tc := range cases {
		fs := newSet()
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if got := unsubmittable(fs); !slices.Equal(got, tc.want) {
			t.Errorf("%v: unsubmittable = %v, want %v", tc.args, got, tc.want)
		}
	}
}

//go:build asyncdebug

package core

import (
	"strings"
	"testing"
)

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, want) {
			t.Errorf("panic %q, want one containing %q", r, want)
		}
	}()
	f()
}

func TestInvariantChecksFire(t *testing.T) {
	var h history
	h.setValid(10)
	h.setValid(10)
	mustPanic(t, "valid-time moved back from 10 to 9", func() { h.setValid(9) })
	checkBelow("consumed event time", 4, 5)
	mustPanic(t, "consumed event time 5 at or past the loaded bound 5", func() { checkBelow("consumed event time", 5, 5) })
}

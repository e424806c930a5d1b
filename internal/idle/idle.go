// Package idle keeps what a finished run built for the next run of the
// same shape: the plane core's lowered machines (internal/vector) and the
// asynchronous engine's run states (internal/core). Building either is the
// largest cost of a run outside its simulation loop, so they outlive runs:
// a run checks an entry out exclusively under a key, a digest of
// everything building it reads, or builds one on a miss, and checks it
// back in once its report holds copies of what it reads.
//
// One process-wide cache, Runs, holds every kind of entry under one byte
// budget and one eviction rule. Entries are held strongly in a FIFO list,
// not a sync.Pool: the benchmark harness and a busy daemon collect garbage
// between runs, which would empty a pool every time.
package idle

import (
	"crypto/sha256"
	"slices"
	"sync"
)

// Key identifies an entry: a SHA-256 over everything building it reads.
type Key = [sha256.Size]byte

// Budget bounds the bytes the idle entries of Runs pin, summed over every
// kind. An entry larger than the whole budget is never kept, so a very
// large circuit pays its build on every run rather than pinning memory
// between runs.
const Budget = 64 << 20

// Cache holds idle entries, oldest first, at most one per key, within a
// byte budget.
type Cache struct {
	mu     sync.Mutex
	idle   []entry
	bytes  int
	budget int
}

type entry struct {
	key   Key
	v     any
	bytes int
}

// New returns an empty cache that keeps at most budget bytes idle.
func New(budget int) *Cache { return &Cache{budget: budget} }

// Runs is the process-wide cache the engines keep their run states in.
var Runs = New(Budget)

// Checkout hands out, and removes from c, the idle entry of type T under
// key.
func Checkout[T any](c *Cache, key Key) (T, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, e := range c.idle {
		if v, ok := e.v.(T); ok && e.key == key {
			c.idle = slices.Delete(c.idle, i, i+1)
			c.bytes -= e.bytes
			return v, true
		}
	}
	var zero T
	return zero, false
}

// Checkin takes v back under key, pinning bytes, unless it alone exceeds
// the budget or an idle entry already holds key, and then evicts the
// oldest entries until the idle ones fit the budget.
func (c *Cache) Checkin(key Key, v any, bytes int) {
	if bytes > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if slices.ContainsFunc(c.idle, func(e entry) bool { return e.key == key }) {
		return
	}
	c.idle = append(c.idle, entry{key, v, bytes})
	c.bytes += bytes
	for c.bytes > c.budget {
		c.bytes -= c.idle[0].bytes
		c.idle[0] = entry{}
		c.idle = c.idle[1:]
	}
}

// Flush drops every idle entry, so the next run of any key builds.
func (c *Cache) Flush() {
	c.mu.Lock()
	c.idle, c.bytes = nil, 0
	c.mu.Unlock()
}

// Bytes reports the bytes the idle entries pin.
func (c *Cache) Bytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

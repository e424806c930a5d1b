// Package barrier implements the sense-reversing spin barrier that
// synchronises the synchronous simulators at the end of every phase — the
// cost the paper's asynchronous algorithm exists to eliminate.
package barrier

import (
	"runtime"
	"sync/atomic"
)

// Barrier synchronises a fixed set of workers. Each worker must carry its
// own Sense and pass it to every Wait call.
type Barrier struct {
	n       int32
	count   atomic.Int32
	sense   atomic.Int32
	aborted atomic.Bool
}

// Sense is a worker-local barrier phase flag; its zero value is ready for
// the first Wait.
type Sense struct{ v int32 }

// New returns a barrier for n workers.
func New(n int) *Barrier {
	if n < 1 {
		panic("barrier: need at least one worker")
	}
	return &Barrier{n: int32(n)}
}

// Wait blocks until all n workers have called Wait with their own Sense,
// or until the barrier is aborted. It returns true on a normal release
// and false once aborted; after an abort the barrier is dead and every
// Wait returns false immediately. The last worker to arrive releases the
// rest; waiting workers spin, yielding to the scheduler so
// oversubscribed configurations make progress.
func (b *Barrier) Wait(s *Sense) bool {
	if b.aborted.Load() {
		return false
	}
	s.v ^= 1
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		b.sense.Store(s.v)
		return !b.aborted.Load()
	}
	for i := 0; b.sense.Load() != s.v; i++ {
		if b.aborted.Load() {
			return false
		}
		if i%64 == 63 {
			runtime.Gosched()
		}
	}
	return !b.aborted.Load()
}

// Abort poisons the barrier: every current and future Wait returns false.
// The supervision layer calls it when a worker in the gang dies or the
// watchdog declares a stall, so no surviving worker is left spinning for
// a peer that will never arrive.
func (b *Barrier) Abort() { b.aborted.Store(true) }

// Aborted reports whether Abort was called. A worker that spins on a peer's
// flag between two Waits polls it so a dead peer cannot strand it there.
func (b *Barrier) Aborted() bool { return b.aborted.Load() }

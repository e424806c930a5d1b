// Package spsc implements the unbounded lock-free single-producer,
// single-consumer FIFO at the heart of the paper's asynchronous algorithm:
// "each queue has only one processor that adds elements to it and only one
// processor that removes elements from it (one reader and one writer).
// Since no locks are used, the two processors corresponding to each queue
// must never modify the same location."
//
// The queue is a linked list of fixed-size chunks. The producer writes a
// slot and then publishes it by storing the chunk's write index atomically;
// the consumer reads the index before touching slots, so the pair never
// races on data. Consumed chunks are dropped for the garbage collector,
// which plays the role of the paper's asynchronous storage reclamation.
package spsc

import "sync/atomic"

// ChunkSize is the number of slots per allocation; a modest power of two
// keeps the producer's amortised cost at one atomic store per push.
const ChunkSize = 128

type chunk[T any] struct {
	slots [ChunkSize]T
	wpos  atomic.Int32 // slots published by the producer
	next  atomic.Pointer[chunk[T]]
}

// Queue is an unbounded SPSC FIFO. The zero value is not usable; call New.
// Push must only ever be called from one goroutine at a time, and Pop from
// one goroutine at a time; the two may run concurrently.
type Queue[T any] struct {
	// Producer side.
	tail *chunk[T]
	// Consumer side.
	head *chunk[T]
	rpos int32
}

// New returns an empty queue.
func New[T any]() *Queue[T] {
	c := &chunk[T]{}
	return &Queue[T]{tail: c, head: c}
}

// Push appends v. It never blocks and never fails.
func (q *Queue[T]) Push(v T) {
	c := q.tail
	w := c.wpos.Load() // no concurrent writer; load is for clarity
	if w == ChunkSize {
		nc := &chunk[T]{}
		nc.slots[0] = v
		nc.wpos.Store(1)
		c.next.Store(nc) // publish the full link after the slot
		q.tail = nc
		return
	}
	c.slots[w] = v
	c.wpos.Store(w + 1) // publish
}

// Pop removes and returns the oldest element; ok is false if the queue is
// currently empty.
func (q *Queue[T]) Pop() (v T, ok bool) {
	c := q.head
	for {
		w := c.wpos.Load()
		if q.rpos < w {
			v = c.slots[q.rpos]
			// Release the slot so large payloads do not leak past
			// consumption — the paper frees events "only after all fan-out
			// elements of a node have been processed"; here the chunk is
			// unreachable once drained.
			var zero T
			c.slots[q.rpos] = zero
			q.rpos++
			return v, true
		}
		if w < ChunkSize {
			return v, false // producer has not filled this chunk yet
		}
		next := c.next.Load()
		if next == nil {
			return v, false // full chunk but the link is not published yet
		}
		q.head = next
		q.rpos = 0
		c = next
	}
}

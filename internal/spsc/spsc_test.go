package spsc

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestEmptyPop(t *testing.T) {
	q := New[int]()
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue returned ok")
	}
}

func TestFIFOOrder(t *testing.T) {
	q := New[int]()
	const n = 10 * ChunkSize
	for i := 0; i < n; i++ {
		q.Push(i)
	}
	for i := 0; i < n; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("Pop %d = %d, %v", i, v, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("queue should be empty")
	}
}

func TestInterleavedPushPop(t *testing.T) {
	q := New[int]()
	next := 0
	pushed := 0
	for round := 0; round < 1000; round++ {
		for i := 0; i < round%7; i++ {
			q.Push(pushed)
			pushed++
		}
		for i := 0; i < round%5; i++ {
			v, ok := q.Pop()
			if !ok {
				if next != pushed {
					t.Fatalf("empty with %d outstanding", pushed-next)
				}
				break
			}
			if v != next {
				t.Fatalf("got %d, want %d", v, next)
			}
			next++
		}
	}
}

// TestConcurrentProducerConsumer exercises the lock-free handoff under the
// race detector.
func TestConcurrentProducerConsumer(t *testing.T) {
	q := New[int64]()
	const n = 200000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := int64(0); i < n; i++ {
			q.Push(i)
		}
	}()
	var sum int64
	var count int64
	go func() {
		defer wg.Done()
		expect := int64(0)
		for count < n {
			v, ok := q.Pop()
			if !ok {
				continue
			}
			if v != expect {
				t.Errorf("out of order: got %d, want %d", v, expect)
				return
			}
			expect++
			sum += v
			count++
		}
	}()
	wg.Wait()
	if count != n || sum != n*(n-1)/2 {
		t.Fatalf("count=%d sum=%d", count, sum)
	}
}

func TestPointerPayloadReleased(t *testing.T) {
	q := New[*int]()
	x := 5
	q.Push(&x)
	v, ok := q.Pop()
	if !ok || *v != 5 {
		t.Fatal("pointer payload broken")
	}
}

func TestQuickMatchesSlice(t *testing.T) {
	f := func(ops []uint8) bool {
		q := New[uint8]()
		var model []uint8
		for _, op := range ops {
			if op%3 != 0 {
				q.Push(op)
				model = append(model, op)
			} else {
				v, ok := q.Pop()
				if len(model) == 0 {
					if ok {
						return false
					}
					continue
				}
				if !ok || v != model[0] {
					return false
				}
				model = model[1:]
			}
		}
		for _, want := range model {
			if v, ok := q.Pop(); !ok || v != want {
				return false
			}
		}
		_, ok := q.Pop()
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkPushPop(b *testing.B) {
	q := New[int]()
	for i := 0; i < b.N; i++ {
		q.Push(i)
		q.Pop()
	}
}

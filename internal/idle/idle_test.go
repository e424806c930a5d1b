package idle

import (
	"reflect"
	"testing"
	"unsafe"
)

func TestCacheKeepsOneEntryPerKeyWithinBudget(t *testing.T) {
	c := New(100)
	k1, k2, k3 := Key{1}, Key{2}, Key{3}
	c.Checkin(k1, "a", 40)
	c.Checkin(k1, "a'", 40) // k1 is idle already: dropped
	c.Checkin(k2, 7, 40)
	if got := c.Bytes(); got != 80 {
		t.Fatalf("%d bytes idle, want 80", got)
	}
	if _, ok := Checkout[int](c, k1); ok {
		t.Error("checked out an int under a key a string holds")
	}
	c.Checkin(k3, "c", 40) // over budget: the oldest, k1, goes
	if _, ok := Checkout[string](c, k1); ok {
		t.Error("the oldest entry was not evicted")
	}
	if v, ok := Checkout[int](c, k2); !ok || v != 7 {
		t.Errorf("checked out %v, %v under k2, want 7", v, ok)
	}
	if _, ok := Checkout[int](c, k2); ok {
		t.Error("an entry was checked out twice")
	}
	c.Checkin(k1, "big", 101) // alone over the budget: never kept
	if _, ok := Checkout[string](c, k1); ok {
		t.Error("an entry larger than the budget was kept")
	}
	c.Flush()
	if _, ok := Checkout[string](c, k3); ok || c.Bytes() != 0 {
		t.Error("Flush left an entry idle")
	}
}

func TestSizeCountsSharedMemoryOnce(t *testing.T) {
	// Two nodes in a cycle whose buffers overlap inside one slab: each
	// node once, the slab once. A holder of the pair counts itself and what
	// it owns, not the nodes, when their type is shared.
	type node struct {
		next *node
		buf  []uint64
	}
	slab := make([]uint64, 64)
	a := &node{buf: slab[:32:32]}
	b := &node{next: a, buf: slab[16:]}
	a.next = b
	if got, want := Size(a), 2*int(unsafe.Sizeof(node{}))+64*8; got != want {
		t.Errorf("Size(a) = %d, want %d", got, want)
	}
	type holder struct {
		n   *node
		own []byte
	}
	h := &holder{n: a, own: make([]byte, 10)}
	if got, want := Size(h, reflect.TypeFor[node]()), int(unsafe.Sizeof(holder{}))+10; got != want {
		t.Errorf("Size(holder) = %d, want %d", got, want)
	}
}

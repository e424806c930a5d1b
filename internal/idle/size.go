package idle

import (
	"cmp"
	"reflect"
	"slices"
	"unsafe"
)

// Size returns the bytes of memory reachable from v — v itself when it is
// a pointer, and everything its pointers, slices, strings, maps and
// interfaces lead to — each byte counted once however many references
// reach it, as an idle entry's count of what it pins. Pointers to the
// types in shared, memory the entry points into but does not own (the
// circuit it was built from), are not followed. A closure's captured
// variables are invisible to reflection, and neither a map's own table nor
// allocator rounding is counted, so Size reads a little low: memory only a
// closure holds is not counted at all.
func Size(v any, shared ...reflect.Type) int {
	w := walker{seen: map[uintptr]bool{}, ptrs: map[reflect.Type]bool{}, shared: shared}
	w.walk(reflect.ValueOf(v))
	return w.total()
}

// walker collects the address ranges reachable from a value.
type walker struct {
	seen    map[uintptr]bool      // pointers followed, and (address ^ 1) slices walked
	ptrs    map[reflect.Type]bool // hasPointers, per type met
	last    reflect.Type          // the type hasPointers answered last, and its answer
	lastHas bool
	spans   []span
	shared  []reflect.Type
}

// span is one address range [lo, hi).
type span struct{ lo, hi uintptr }

// add records [p, p+n). A range that starts where one of the last few
// recorded ends extends it instead: sub-slices cut one after another from
// a slab (every plane's words, every element's cursors) make one range.
func (w *walker) add(p unsafe.Pointer, n uintptr) {
	if p == nil || n == 0 {
		return
	}
	lo := uintptr(p)
	for i := len(w.spans) - 1; i >= max(0, len(w.spans)-4); i-- {
		if s := &w.spans[i]; s.hi == lo {
			s.hi = lo + n
			return
		}
	}
	w.spans = append(w.spans, span{lo, lo + n})
}

// total is the length of the union of the collected ranges: a sub-slice
// and the array it cuts, or a pointer into a slab and the slab, count once.
func (w *walker) total() int {
	slices.SortFunc(w.spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	total := 0
	var cur span
	for _, s := range w.spans {
		if s.lo >= cur.hi {
			total += int(cur.hi - cur.lo)
			cur = s
			continue
		}
		cur.hi = max(cur.hi, s.hi)
	}
	return total + int(cur.hi-cur.lo)
}

func (w *walker) walk(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || slices.Contains(w.shared, v.Type().Elem()) {
			return
		}
		p := v.UnsafePointer()
		if w.seen[uintptr(p)] {
			return
		}
		w.seen[uintptr(p)] = true
		w.add(p, v.Type().Elem().Size())
		w.walk(v.Elem())
	case reflect.Slice:
		if v.Cap() == 0 {
			return
		}
		p, et := v.UnsafePointer(), v.Type().Elem()
		w.add(p, uintptr(v.Cap())*et.Size())
		if !w.hasPointers(et) || w.seen[uintptr(p)^1] {
			return
		}
		w.seen[uintptr(p)^1] = true
		full := v.Slice3(0, v.Cap(), v.Cap())
		for i := range full.Len() {
			w.walk(full.Index(i))
		}
	case reflect.Array:
		if w.hasPointers(v.Type()) {
			for i := range v.Len() {
				w.walk(v.Index(i))
			}
		}
	case reflect.Struct:
		for i := range v.NumField() {
			w.walk(v.Field(i))
		}
	case reflect.String:
		if v.Len() > 0 {
			w.add(unsafe.Pointer(unsafe.StringData(v.String())), uintptr(v.Len()))
		}
	case reflect.Interface:
		if !v.IsNil() {
			w.walk(v.Elem())
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			w.walk(it.Key())
			w.walk(it.Value())
		}
	}
}

// hasPointers reports whether a value of type t can refer to other memory
// the walk follows.
func (w *walker) hasPointers(t reflect.Type) bool {
	if t == w.last {
		return w.lastHas
	}
	has, ok := w.ptrs[t]
	if ok {
		w.last, w.lastHas = t, has
		return has
	}
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.String, reflect.Interface, reflect.Map:
		has = true
	case reflect.Array:
		has = t.Len() > 0 && w.hasPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			has = has || w.hasPointers(t.Field(i).Type)
		}
	}
	w.ptrs[t] = has
	return has
}

package eventq

import (
	"math/rand"
	"sort"
	"testing"

	"parsim/internal/circuit"
	"parsim/internal/logic"
)

func up(n int) Update {
	return Update{Node: circuit.NodeID(n), Value: logic.V(8, uint64(n))}
}

func TestEmptyQueue(t *testing.T) {
	q := New()
	if q.Len() != 0 {
		t.Fatal("new queue not empty")
	}
	if _, ok := q.Peek(); ok {
		t.Fatal("Peek on empty queue")
	}
	if _, _, ok := q.PopNext(); ok {
		t.Fatal("PopNext on empty queue")
	}
}

func TestFIFOWithinTime(t *testing.T) {
	q := New()
	q.Schedule(5, up(1))
	q.Schedule(5, up(2))
	q.Schedule(5, up(3))
	tm, ups, ok := q.PopNext()
	if !ok || tm != 5 || len(ups) != 3 {
		t.Fatalf("pop = %d %v %v", tm, ups, ok)
	}
	for i, u := range ups {
		if u.Node != circuit.NodeID(i+1) {
			t.Errorf("ups[%d] = node %d", i, u.Node)
		}
	}
}

func TestTimeOrdering(t *testing.T) {
	q := New()
	for _, tm := range []circuit.Time{9, 2, 7, 4, 100000, 3} {
		q.Schedule(tm, up(int(tm)))
	}
	want := []circuit.Time{2, 3, 4, 7, 9, 100000}
	for _, w := range want {
		tm, ups, ok := q.PopNext()
		if !ok || tm != w || len(ups) != 1 {
			t.Fatalf("pop = %d (%d ups) %v, want %d", tm, len(ups), ok, w)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("len = %d after draining", q.Len())
	}
}

func TestOverflowBeyondWheel(t *testing.T) {
	q := NewSize(16)
	// Far beyond the 16-tick wheel.
	q.Schedule(1000, up(1))
	q.Schedule(3, up(2))
	q.Schedule(1000+16, up(3)) // same slot as 1000 in a 16-slot wheel
	tm, _, _ := q.PopNext()
	if tm != 3 {
		t.Fatalf("first pop = %d", tm)
	}
	tm, _, _ = q.PopNext()
	if tm != 1000 {
		t.Fatalf("second pop = %d", tm)
	}
	tm, _, _ = q.PopNext()
	if tm != 1016 {
		t.Fatalf("third pop = %d", tm)
	}
}

func TestSlotCollisionGoesToOverflow(t *testing.T) {
	q := NewSize(8)
	q.Schedule(1, up(1))
	// After popping time 1, cur=2; time 9 maps to slot 1 again while the
	// wheel window is [2, 10).
	tm, _, _ := q.PopNext()
	if tm != 1 {
		t.Fatal("setup pop failed")
	}
	q.Schedule(9, up(2))
	q.Schedule(17, up(3)) // outside window -> overflow
	tm, _, _ = q.PopNext()
	if tm != 9 {
		t.Fatalf("pop = %d, want 9", tm)
	}
	tm, _, _ = q.PopNext()
	if tm != 17 {
		t.Fatalf("pop = %d, want 17", tm)
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	q := New()
	q.Schedule(10, up(1))
	q.PopNext()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	q.Schedule(5, up(2))
}

func TestBadWheelSizePanics(t *testing.T) {
	for _, size := range []int{0, -4, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSize(%d) did not panic", size)
				}
			}()
			NewSize(size)
		}()
	}
}

// TestAgainstModel drives the queue and a naive map-based model with the
// same random schedule/pop sequence and requires identical behaviour.
func TestAgainstModel(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		q := NewSize(32)
		model := map[circuit.Time][]Update{}
		cur := circuit.Time(0)
		id := 0
		for step := 0; step < 2000; step++ {
			if r.Intn(3) != 0 || len(model) == 0 {
				// Schedule at a random future time, occasionally far out.
				var dt circuit.Time
				if r.Intn(10) == 0 {
					dt = circuit.Time(r.Intn(5000))
				} else {
					dt = circuit.Time(r.Intn(20))
				}
				tm := cur + dt
				u := up(id)
				id++
				q.Schedule(tm, u)
				model[tm] = append(model[tm], u)
			} else {
				tm, ups, ok := q.PopNext()
				if !ok {
					t.Fatalf("seed %d: queue empty but model has %d times", seed, len(model))
				}
				// Model: find min time.
				var want circuit.Time = -1
				for mt := range model {
					if want < 0 || mt < want {
						want = mt
					}
				}
				if tm != want {
					t.Fatalf("seed %d: popped %d, want %d", seed, tm, want)
				}
				wantUps := model[want]
				delete(model, want)
				if len(ups) != len(wantUps) {
					t.Fatalf("seed %d t=%d: %d ups, want %d", seed, tm, len(ups), len(wantUps))
				}
				// Same multiset of updates (order may differ between wheel
				// and overflow portions).
				sortUps := func(s []Update) {
					sort.Slice(s, func(i, j int) bool { return s[i].Node < s[j].Node })
				}
				gotCopy := append([]Update(nil), ups...)
				sortUps(gotCopy)
				sortUps(wantUps)
				for i := range gotCopy {
					if gotCopy[i] != wantUps[i] {
						t.Fatalf("seed %d t=%d: ups differ at %d", seed, tm, i)
					}
				}
				cur = tm + 1
			}
		}
	}
}

func BenchmarkScheduleAndPop(b *testing.B) {
	q := New()
	r := rand.New(rand.NewSource(1))
	cur := circuit.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Schedule(cur+circuit.Time(1+r.Intn(8)), up(i))
		if i%4 == 3 {
			tm, _, ok := q.PopNext()
			if ok {
				cur = tm
			}
		}
	}
}

// TestPopNextLendsUntilNextPop is the lifetime rule's canary: between two
// PopNext calls no Schedule — same slot, other slots, overflow — may write
// to the slice the first one returned, and the second takes the array back.
func TestPopNextLendsUntilNextPop(t *testing.T) {
	q := New()
	for i := 0; i < 4; i++ {
		q.Schedule(3, up(i))
	}
	_, lent, _ := q.PopNext()
	want := append([]Update(nil), lent...)
	for i := 0; i < 64; i++ {
		q.Schedule(3+circuit.Time(DefaultWheelSize), up(100+i)) // the popped slot, one span on
		q.Schedule(4+circuit.Time(i%7), up(200+i))
		q.Schedule(1<<40, up(300+i))
	}
	q.Peek()
	q.Dump()
	for i := range want {
		if lent[i] != want[i] {
			t.Fatalf("lent[%d] overwritten before the next PopNext: %v, want %v", i, lent[i], want[i])
		}
	}
	q.PopNext()
	q.Schedule(20, up(999))
	if &lent[0] != &q.slots[20&q.mask].ups[0] {
		t.Error("the lent array was not recycled into the next occupied slot")
	}
}

// TestDumpAndRestoreShareNoArrays: Dump drains a deep copy, so it must not
// touch the live queue's free list or the slice lent to the caller, and
// Restore forgets both.
func TestDumpAndRestoreShareNoArrays(t *testing.T) {
	q := New()
	for i := 0; i < 8; i++ {
		q.Schedule(circuit.Time(1+i%3), up(i))
	}
	q.PopNext()
	_, lent, _ := q.PopNext()
	want := append([]Update(nil), lent...)
	free := len(q.free)
	cur, entries := q.Dump()
	if len(q.free) != free || len(q.lent) != len(want) {
		t.Fatalf("Dump changed the live queue's recycling state: free %d -> %d", free, len(q.free))
	}
	q.Restore(cur, entries)
	if q.free != nil || q.lent != nil {
		t.Error("Restore kept the free list or the lent array")
	}
	for i := 0; i < 32; i++ {
		q.Schedule(cur+circuit.Time(i%5), up(50+i))
	}
	for q.Len() > 0 {
		q.PopNext()
	}
	for i := range want {
		if lent[i] != want[i] {
			t.Fatalf("slice lent before Dump/Restore was written afterwards at %d", i)
		}
	}
}

// TestSteadyStateAllocatesNothing: once every bucket array a cycle needs is
// on the free list, scheduling and popping allocate nothing — near times,
// a wheel span ahead, and the far-future heap alike.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	q := New()
	cur := circuit.Time(0)
	cycle := func() {
		for i := 0; i < 6; i++ {
			q.Schedule(cur+1+circuit.Time(i%3), up(i))
		}
		q.Schedule(cur+circuit.Time(DefaultWheelSize), up(7))
		q.Schedule(cur+5000, up(8))
		for i := 0; i < 3; i++ {
			cur, _, _ = q.PopNext()
		}
	}
	for i := 0; i < 3*DefaultWheelSize; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Errorf("steady-state schedule/pop cycle allocates %.1f times", avg)
	}
}

// model is FuzzQueue's oracle: a plain slice kept in pop order. The queue
// delivers the updates of one time wheel-resident ones first, then those
// that were beyond the wheel's span when scheduled, each group in
// scheduling order; far is that one bit of the contract.
type modelEntry struct {
	t   circuit.Time
	far bool
	seq int
	up  Update
}

type model struct {
	cur     circuit.Time
	seq     int
	entries []modelEntry
}

func (m *model) schedule(t circuit.Time, u Update) {
	e := modelEntry{t: t, far: t >= m.cur+DefaultWheelSize, seq: m.seq, up: u}
	m.seq++
	m.entries = append(m.entries, e)
	sort.SliceStable(m.entries, func(i, j int) bool {
		a, b := m.entries[i], m.entries[j]
		if a.t != b.t {
			return a.t < b.t
		}
		return !a.far && b.far
	})
}

func (m *model) pop() (circuit.Time, []Update) {
	t := m.entries[0].t
	var ups []Update
	for len(m.entries) > 0 && m.entries[0].t == t {
		ups = append(ups, m.entries[0].up)
		m.entries = m.entries[1:]
	}
	m.cur = t + 1
	return t, ups
}

// FuzzQueue drives the queue and the model with the same byte-coded
// sequence of Schedule, Peek, PopNext and Dump->Restore operations and
// requires equal times and equal payloads in equal order, plus the lending
// rule: a slice PopNext returned is unchanged until the next PopNext.
func FuzzQueue(f *testing.F) {
	// The seed corpus is testdata/fuzz/FuzzQueue: equal times, a slot shared
	// one wheel span apart, far-future ties, dump/restore mid-stream.
	f.Add([]byte{0, 0, 1, 0, 6, 2, 7, 3, 7, 6, 0, 0, 6, 4, 9, 5, 3, 6, 6, 6, 7, 6})
	f.Fuzz(func(t *testing.T, prog []byte) {
		q, m := New(), &model{}
		var lent, lentWant []Update
		id := 0
		checkLent := func(when string) {
			for i := range lentWant {
				if lent[i] != lentWant[i] {
					t.Fatalf("%s wrote to the slice PopNext lent out", when)
				}
			}
		}
		for pc := 0; pc < len(prog); pc++ {
			op := prog[pc] % 8
			arg := circuit.Time(0)
			if op <= 5 && pc+1 < len(prog) {
				pc++
				arg = circuit.Time(prog[pc])
			}
			switch op {
			case 0, 1, 2, 3: // near future, ties likely
				arg = m.cur + arg%24
			case 4: // exactly one wheel span after a near time
				arg = m.cur + arg%24 + DefaultWheelSize
			case 5: // far future, from a handful of times so that ties occur
				arg = m.cur + DefaultWheelSize*(2+arg%4)
			}
			switch {
			case op <= 5:
				u := up(id)
				id++
				q.Schedule(arg, u)
				m.schedule(arg, u)
				checkLent("Schedule")
			case op == 6:
				if len(m.entries) == 0 {
					if _, _, ok := q.PopNext(); ok {
						t.Fatal("PopNext on a queue the model holds empty")
					}
					continue
				}
				checkLent("the time up to the next PopNext")
				wantT, want := m.pop()
				gotT, got, ok := q.PopNext()
				if !ok || gotT != wantT || len(got) != len(want) {
					t.Fatalf("PopNext = t %d, %d updates, %v; model t %d, %d updates", gotT, len(got), ok, wantT, len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("t=%d: payload %d is node %d, model has node %d", gotT, i, got[i].Node, want[i].Node)
					}
				}
				lent, lentWant = got, append(lentWant[:0], got...)
			default: // Dump -> Restore; the model re-schedules in pop order
				cur, entries := q.Dump()
				checkLent("Dump")
				if cur != m.cur || len(entries) != len(m.entries) {
					t.Fatalf("Dump = cursor %d, %d entries; model cursor %d, %d entries", cur, len(entries), m.cur, len(m.entries))
				}
				old := m.entries
				m.entries, m.seq = nil, 0
				for i, e := range entries {
					if e.T != old[i].t || e.Node != old[i].up.Node || e.Value != old[i].up.Value {
						t.Fatalf("Dump entry %d = (t %d, node %d), model (t %d, node %d)", i, e.T, e.Node, old[i].t, old[i].up.Node)
					}
					m.schedule(e.T, old[i].up)
				}
				q.Restore(cur, entries)
				checkLent("Restore")
			}
			wantT, wantOK := circuit.Time(0), len(m.entries) > 0
			if wantOK {
				wantT = m.entries[0].t
			}
			if gotT, ok := q.Peek(); ok != wantOK || gotT != wantT || q.Len() != len(m.entries) {
				t.Fatalf("Peek = %d %v, Len %d; model %d %v, %d", gotT, ok, q.Len(), wantT, wantOK, len(m.entries))
			}
		}
	})
}

package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"parsim/internal/logic"
	"parsim/internal/stats"
)

// sampleSnapshot populates every section of the snapshot with
// representative data, so the round-trip test covers the full wire shape.
func sampleSnapshot() *Snapshot {
	v1 := PackValue(logic.V(1, 1))
	v0 := PackValue(logic.V(1, 0))
	return &Snapshot{
		Engine:    "sequential",
		Digest:    [32]byte{1, 2, 3, 4, 5},
		Step:      1234,
		TimeSteps: 617,
		Workers: []stats.WorkerCounters{
			{Evals: 10, NodeUpdates: 4, BarrierWaits: 2},
			{Evals: 12, NodeUpdates: 5, BarrierWaits: 2},
		},
		Values:    []RawValue{v0, v1},
		Projected: []RawValue{v1, v1},
		ElemState: [][]RawValue{{v0}, nil},
		Events: []Event{
			{T: 1235, Node: 0, Value: v1},
			{T: 1236, Node: 1, Value: v0},
		},
		QueueCur: 7,
		GenNext:  []int64{1240, -1},
		Planes: []PlaneState{
			{V: []uint64{0xdeadbeef}, U: []uint64{0}},
		},
		Kernels: []KernelState{
			{Planes: []PlaneState{{V: []uint64{1}, U: []uint64{2}}}, Lanes: [][]RawValue{{v1}}},
		},
		HasTrace: true,
		Trace: []TraceChange{
			{Node: 2, T: 100, Value: v1},
		},
		Fault: &FaultState{
			Pass:     1,
			Ran:      1,
			Statuses: []stats.FaultStatus{{Detected: true}},
			Det:      [][]uint64{{0b1010}},
			First:    [][]int64{{42}},
			Acc:      RunCounters{TimeSteps: 600, Evals: 999},
		},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.ckpt")
	want := sampleSnapshot()
	if err := Save(path, want); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip changed the snapshot:\nwant %+v\n got %+v", want, got)
	}
	if err := Verify(path, got, "sequential", want.Digest); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestSaveReplacesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.ckpt")
	first := sampleSnapshot()
	if err := Save(path, first); err != nil {
		t.Fatal(err)
	}
	second := sampleSnapshot()
	second.Step = 9999
	if err := Save(path, second); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 9999 {
		t.Fatalf("Load after second Save: step %d, want 9999", got.Step)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after atomic saves, want 1", len(entries))
	}
}

// corruptErr asserts err is a *CorruptError (the typed contract: damaged
// snapshots never decode, never panic, never surface as generic errors).
func corruptErr(t *testing.T, err error, label string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: corruption accepted", label)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("%s: error %v is not a *CorruptError", label, err)
	}
}

func TestLoadTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.ckpt")
	if err := Save(path, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation point: inside the header, at the header boundary,
	// and mid-payload.
	for _, n := range []int{0, 3, 7, 15, headerSize - 1, headerSize, len(data) / 2, len(data) - 1} {
		_, err := decode(path, data[:n])
		corruptErr(t, err, "truncated to "+string(rune('0'+n%10)))
	}
}

func TestLoadBitFlips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.ckpt")
	if err := Save(path, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in every byte of the file; each damaged image must be
	// rejected as corrupt (magic, version, length, checksum or payload).
	for i := range orig {
		data := append([]byte(nil), orig...)
		data[i] ^= 0x40
		if _, err := decode(path, data); err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		} else {
			corruptErr(t, err, "bit flip")
		}
	}
}

func TestLoadWrongMagicAndVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.ckpt")
	if err := Save(path, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), data...)
	copy(bad[0:4], "ELF\x7f")
	_, derr := decode(path, bad)
	corruptErr(t, derr, "bad magic")

	bad = append([]byte(nil), data...)
	bad[4] = 99
	_, derr = decode(path, bad)
	corruptErr(t, derr, "future version")

	// A version-1 frame: its vector planes are numbered in node-id order,
	// which no length check downstream could tell from today's.
	bad = append([]byte(nil), data...)
	bad[4] = 1
	_, derr = decode(path, bad)
	corruptErr(t, derr, "version-1 frame")
}

func TestLoadMissingFile(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "nope.ckpt"))
	if err == nil {
		t.Fatal("missing file loaded")
	}
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file error %v does not wrap os.ErrNotExist", err)
	}
}

func TestVerifyMismatches(t *testing.T) {
	s := sampleSnapshot()
	var me *MismatchError
	if err := Verify("p", s, "vector", s.Digest); !errors.As(err, &me) || me.Field != "engine" {
		t.Fatalf("engine mismatch: %v", err)
	}
	other := s.Digest
	other[0] ^= 0xff
	if err := Verify("p", s, "sequential", other); !errors.As(err, &me) || me.Field != "content digest" {
		t.Fatalf("digest mismatch: %v", err)
	}
	if err := Verify("p", s, "sequential", s.Digest); err != nil {
		t.Fatalf("matching verify failed: %v", err)
	}
}

func TestUnpackRejectsNonCanonical(t *testing.T) {
	// Bits set outside the declared width are non-canonical; a tampered
	// snapshot must not smuggle them past Unpack.
	rv := RawValue{B: 0xff, U: 0, Z: 0, W: 1}
	if _, err := rv.Unpack(); err == nil {
		t.Fatal("non-canonical RawValue unpacked")
	}
	if _, err := UnpackValues([]RawValue{PackValue(logic.V(1, 1)), rv}); err == nil {
		t.Fatal("UnpackValues accepted a non-canonical entry")
	}
}

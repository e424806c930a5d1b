// Package checkpoint implements the durable snapshot format that lets a
// simulation survive crashes: a versioned, CRC-protected, self-describing
// capture of everything a synchronous engine needs to continue from a
// quiescent point — node states, pending events, wide-plane lane state,
// per-worker counters and the step cursor — plus a content digest binding
// the snapshot to one (netlist, options) pair. Writes are atomic
// (temp + fsync + rename + directory fsync) so a crash mid-save leaves the
// previous snapshot intact; reads verify length and checksum before
// decoding so corruption fails loudly with a typed error instead of
// resuming from garbage.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"parsim/internal/logic"
	"parsim/internal/stats"
)

// Version is the snapshot format version. Bump on any wire change — and on
// any change of meaning the length checks cannot see; Load rejects other
// versions. Version 2 renumbered the plane engines' node planes from
// node-id order to the compiled program's owner/level-major order: a
// version-1 vector snapshot has the right plane count in the wrong nodes.
// Adding a field is not such a change: gob skips a field the decoding
// struct lacks and leaves one the payload lacks at its zero value, in both
// directions. So the plane core's Marks, added within version 2, is simply
// absent from older snapshots (which resume with every block marked), and
// older readers ignore it.
const Version = 2

// magic identifies a parsim checkpoint file.
var magic = [4]byte{'P', 'S', 'C', 'K'}

// headerSize is magic + version(u32) + payload length(u64) + CRC32(u32).
const headerSize = 4 + 4 + 8 + 4

// maxPayload bounds the decoded payload so a corrupted length field cannot
// trigger a huge allocation before the CRC check gets a chance to run.
const maxPayload = 1 << 32

// ErrUnsupported is returned when checkpointing or resume is requested on
// an engine without quiescent-point snapshot support.
var ErrUnsupported = errors.New("checkpoint: engine does not support checkpoint/resume")

// CorruptError reports a snapshot that failed structural validation:
// truncation, bad magic, unknown version, checksum mismatch, an
// undecodable payload, a file no snapshot can be — or, with Field set, a
// section that fails Engine's restore checks. A corrupt snapshot is never
// silently resumed.
type CorruptError struct {
	Path   string
	Engine string // the engine whose restore refused the snapshot
	Field  string // the refused snapshot section
	Reason string
}

func (e *CorruptError) Error() string {
	if e.Field == "" {
		return fmt.Sprintf("checkpoint: %s: corrupt snapshot: %s", e.Path, e.Reason)
	}
	return fmt.Sprintf("checkpoint: %s: corrupt %s snapshot: %s: %s", e.Path, e.Engine, e.Field, e.Reason)
}

// MismatchError reports a structurally valid snapshot that does not belong
// to the run being resumed — different netlist, options or engine.
type MismatchError struct {
	Path   string
	Engine string // the engine of the run being resumed
	Field  string
	Want   string
	Got    string
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("checkpoint: %s: %s mismatch resuming %s: snapshot has %s, run has %s",
		e.Path, e.Field, e.Engine, e.Got, e.Want)
}

// Plan tells a run where and how often to snapshot. The zero value
// disables checkpointing.
type Plan struct {
	Path   string           // snapshot file; written atomically in place
	Every  int64            // capture interval in steps (at quiescent points)
	Gap    time.Duration    // min spacing between durable writes (0: DefaultGap)
	OnSave func(step int64) // optional notification after each durable save
}

// RawValue is the wire form of a logic.Value: its three bit planes and
// width. Unpack validates canonical form, so a tampered snapshot cannot
// introduce values that break the logic package's invariants.
type RawValue struct {
	B, U, Z uint64
	W       uint8
}

// PackValue converts a logic.Value to wire form.
func PackValue(v logic.Value) RawValue {
	b, u, z, w := v.Raw()
	return RawValue{B: b, U: u, Z: z, W: w}
}

// Unpack rebuilds the logic.Value, rejecting non-canonical planes.
func (rv RawValue) Unpack() (logic.Value, error) {
	return logic.FromRaw(rv.B, rv.U, rv.Z, rv.W)
}

// PackValues converts a value slice to wire form.
func PackValues(vs []logic.Value) []RawValue {
	out := make([]RawValue, len(vs))
	for i, v := range vs {
		out[i] = PackValue(v)
	}
	return out
}

// UnpackValues rebuilds a value slice, failing on the first non-canonical
// entry.
func UnpackValues(rvs []RawValue) ([]logic.Value, error) {
	out := make([]logic.Value, len(rvs))
	for i, rv := range rvs {
		v, err := rv.Unpack()
		if err != nil {
			return nil, fmt.Errorf("value %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}

// Event is one pending event-queue entry in pop order.
type Event struct {
	T     int64
	Node  int32
	Value RawValue
}

// TraceChange is one recorded probe change, in (time, node) order.
type TraceChange struct {
	Node  int32
	T     int64
	Value RawValue
}

// PlaneState is the wire form of one logic.WidePlane: the value and
// undefined words of every lane.
type PlaneState struct {
	V, U []uint64
}

// KernelState carries the private state of one plane-core kernel —
// plane rows such as a flip-flop's previous clock and held output, or a
// RAM's memory array — plus per-lane scalar element state for kernels that
// fall back to scalar evaluation.
type KernelState struct {
	Planes []PlaneState
	Lanes  [][]RawValue
}

// RunCounters is the gob-safe subset of stats.Run a fault-simulation
// snapshot accumulates across completed passes (the fields addRunCounters sums).
type RunCounters struct {
	TimeSteps   int64
	NodeUpdates int64
	Evals       int64
	ModelCalls  int64
	EventsUsed  int64
	Wall        time.Duration
	PerWorker   []stats.WorkerCounters
}

// FaultState captures a concurrent fault simulation between passes and, via
// the embedded pass snapshot fields of the owning Snapshot, mid-pass.
type FaultState struct {
	Pass     int                 // index of the pass the snapshot was taken in
	Ran      int                 // passes fully completed before this one
	Statuses []stats.FaultStatus // full per-fault table (all passes)
	Det      [][]uint64          // current pass per-worker detection masks
	First    [][]int64           // current pass per-worker first-detection steps
	Acc      RunCounters         // counters merged from completed passes
}

// Snapshot is everything needed to continue a run from a quiescent point.
// The header, the worker rows and the probe trace are written and checked
// by Session; engines populate the sections they use and ignore the rest.
type Snapshot struct {
	Engine string   // canonical engine name that wrote the snapshot
	Digest [32]byte // content digest of (netlist, run options)

	Step      int64 // next step/time to execute on resume
	TimeSteps int64 // res.TimeSteps accumulated so far (event-driven cursor engines)

	Workers []stats.WorkerCounters // cumulative per-worker counters

	// Values and ElemState are the scalar section sequential and compiled
	// share; the rest of this block is sequential's own.
	Values    []RawValue
	Projected []RawValue
	ElemState [][]RawValue
	Events    []Event
	QueueCur  int64
	GenNext   []int64

	// Plane core: node planes plus per-kernel state, and the selective
	// trace's pending marks — bit g set means schedule block g runs at
	// step Step; nil in a snapshot written before marks were kept.
	Planes  []PlaneState
	Kernels []KernelState
	Marks   []uint64

	// Probe history replay for bit-identical VCD output.
	HasTrace bool
	Trace    []TraceChange

	// Fault simulation progress, nil outside fault-sim runs.
	Fault *FaultState
}

// encode serialises the snapshot into the framed wire format.
func encode(s *Snapshot) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(s); err != nil {
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}
	buf := make([]byte, headerSize+payload.Len())
	copy(buf[0:4], magic[:])
	binary.LittleEndian.PutUint32(buf[4:8], Version)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(buf[16:20], crc32.ChecksumIEEE(payload.Bytes()))
	copy(buf[headerSize:], payload.Bytes())
	return buf, nil
}

// decode parses and validates a framed snapshot read from path (the path is
// only used in error messages).
func decode(path string, data []byte) (*Snapshot, error) {
	if len(data) < headerSize {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("file too short (%d bytes)", len(data))}
	}
	if !bytes.Equal(data[0:4], magic[:]) {
		return nil, &CorruptError{Path: path, Reason: "bad magic (not a parsim checkpoint)"}
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != Version {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("unsupported format version %d (have %d)", v, Version)}
	}
	n := binary.LittleEndian.Uint64(data[8:16])
	if n > maxPayload || int(n) != len(data)-headerSize {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("payload length %d does not match file size %d", n, len(data))}
	}
	payload := data[headerSize:]
	want := binary.LittleEndian.Uint32(data[16:20])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("checksum mismatch (stored %08x, computed %08x)", want, got)}
	}
	var s Snapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&s); err != nil {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("undecodable payload: %v", err)}
	}
	return &s, nil
}

// Save writes the snapshot to path atomically: the bytes land in a
// temporary file in the same directory, are fsynced, renamed over path, and
// the directory is fsynced so the rename itself is durable. A crash at any
// point leaves either the old snapshot or the new one, never a torn file.
func Save(path string, s *Snapshot) (err error) {
	data, err := encode(s)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("checkpoint: save: %w", err)
	}
	defer func() {
		if err != nil {
			_ = tmp.Close()
			_ = os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(data); err != nil {
		return fmt.Errorf("checkpoint: save: %w", err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("checkpoint: save: sync: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: save: close: %w", err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: save: %w", err)
	}
	if err = syncDir(dir); err != nil {
		return fmt.Errorf("checkpoint: save: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so a completed rename survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// Load reads and validates a snapshot. Errors are typed: *CorruptError for
// any structural damage, wrapped os errors for I/O failures. A stranger
// may name the path (parsimd's resume_from), so anything but a regular
// file of a size a snapshot can have is refused before it is opened — a
// FIFO would block the open, a device stream up to the size cap.
func Load(path string) (*Snapshot, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: load: %w", err)
	}
	if !fi.Mode().IsRegular() {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("not a regular file (%v)", fi.Mode().Type())}
	}
	if n := fi.Size(); n < headerSize || n > headerSize+maxPayload {
		return nil, &CorruptError{Path: path, Reason: fmt.Sprintf("file size %d outside [%d, %d]", n, headerSize, headerSize+maxPayload)}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: load: %w", err)
	}
	defer f.Close()
	data := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, fmt.Errorf("checkpoint: load: %w", err)
	}
	return decode(path, data)
}

// Verify checks that a loaded snapshot belongs to the run being resumed:
// same engine, same content digest.
func Verify(path string, s *Snapshot, engine string, digest [32]byte) error {
	if s.Engine != engine {
		return &MismatchError{Path: path, Engine: engine, Field: "engine", Want: engine, Got: s.Engine}
	}
	if s.Digest != digest {
		return &MismatchError{Path: path, Engine: engine, Field: "content digest",
			Want: fmt.Sprintf("%x", digest[:8]), Got: fmt.Sprintf("%x", s.Digest[:8])}
	}
	return nil
}

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"

	"parsim/internal/checkpoint"
	"parsim/internal/cluster"
)

// The job journal is the daemon's crash-durability record: one JSON line
// per lifecycle event, appended and fsynced before the event is considered
// to have happened. On restart New replays the journal — jobs with a
// terminal record reappear in the status API with their saved result,
// jobs without one are re-queued and, when an intact snapshot exists,
// resumed from it. A `kill -9` therefore loses at most the work since the
// last checkpoint, never the job itself.

// Journal record types. A job's line sequence is
// accepted -> started -> checkpointed* -> (done|failed|cancelled);
// any prefix of that sequence is a legal crash state.
const (
	recAccepted     = "accepted"
	recStarted      = "started"
	recCheckpointed = "checkpointed"
	recDone         = "done"
	recFailed       = "failed"
	recCancelled    = "cancelled"
)

// journalRecord is one journal line.
type journalRecord struct {
	Type string `json:"type"`
	Job  string `json:"job"`
	// Seq is the numeric id counter value (accepted records only), so a
	// restarted daemon never reuses an id.
	Seq int64 `json:"seq,omitempty"`
	// Req is the full submission body (accepted records only) — enough to
	// rebuild and re-run the job from scratch.
	Req *cluster.Submission `json:"req,omitempty"`
	// Step is the simulated time of the snapshot (checkpointed records).
	Step int64 `json:"step,omitempty"`
	// Result is the marshalled run report (done records).
	Result json.RawMessage `json:"result,omitempty"`
	// Error is the terminal failure message (failed/cancelled records).
	Error string    `json:"error,omitempty"`
	At    time.Time `json:"at"`
}

// journal is an append-only, fsync-per-record JSON-lines file.
type journal struct {
	mu sync.Mutex
	f  *os.File
}

// openJournal opens the journal for appending after its first intact
// bytes, the length readJournal reported. Cutting a torn tail first keeps
// the next record from being glued onto it, which would turn a tolerated
// torn final line into a malformed mid-file record on the restart after.
func openJournal(path string, intact int64) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	if err := f.Truncate(intact); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("journal: cutting torn tail: %w", err)
	}
	return &journal{f: f}, nil
}

// append writes one record and syncs it to disk. The record is durable
// when append returns nil — the caller may then act on the event.
func (jn *journal) append(rec journalRecord) error {
	rec.At = time.Now().UTC()
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: encoding %s record: %w", rec.Type, err)
	}
	b = append(b, '\n')
	jn.mu.Lock()
	defer jn.mu.Unlock()
	if jn.f == nil {
		return fmt.Errorf("journal: closed")
	}
	if _, err := jn.f.Write(b); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := jn.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	return nil
}

// Close syncs and closes the journal file; further appends fail.
func (jn *journal) Close() error {
	jn.mu.Lock()
	defer jn.mu.Unlock()
	if jn.f == nil {
		return nil
	}
	f := jn.f
	jn.f = nil
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("journal: sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: close: %w", err)
	}
	return nil
}

// readJournal loads every record from a journal file and returns them
// with the journal's intact length: its bytes through the last complete
// line. A missing file is an empty journal. A torn final line — the
// expected artifact of a crash mid-append, malformed or missing its
// newline — is tolerated and dropped; a malformed line anywhere else is
// corruption and an error, because silently skipping records would
// resurrect the wrong state.
func readJournal(path string) ([]journalRecord, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	var recs []journalRecord
	end := 0
	for lineNo := 1; ; lineNo++ {
		n := bytes.IndexByte(data[end:], '\n')
		if n < 0 {
			// Whatever follows the last newline is a torn append: the
			// crash came before the sync, so the event never durably
			// happened. Drop it.
			return recs, int64(end), nil
		}
		line := bytes.TrimSpace(data[end : end+n])
		if len(line) != 0 {
			var rec journalRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				if len(bytes.TrimSpace(data[end+n:])) != 0 {
					return nil, 0, fmt.Errorf("journal %s: malformed record on line %d: %w", path, lineNo, err)
				}
				return recs, int64(end), nil // torn final line
			}
			recs = append(recs, rec)
		}
		end += n + 1
	}
}

// openState prepares the state directory, replays the journal into the
// job store/queue and opens the journal for appending. Called by New
// before the dispatcher starts, so recovered jobs run in their original
// submission order ahead of any new work.
func (s *Server) openState() error {
	if err := os.MkdirAll(s.cfg.StateDir, 0o755); err != nil {
		return fmt.Errorf("state dir: %w", err)
	}
	path := filepath.Join(s.cfg.StateDir, "journal.jsonl")
	recs, intact, err := readJournal(path)
	if err != nil {
		return err
	}
	jn, err := openJournal(path, intact)
	if err != nil {
		return err
	}
	s.jnl = jn
	s.recoverJobs(recs)
	return nil
}

// ckptPath is the snapshot file a durable job checkpoints to.
func (s *Server) ckptPath(id string) string {
	return filepath.Join(s.cfg.StateDir, id+".ckpt")
}

// logJournal appends a record, logging (not propagating) failures: a full
// disk degrades durability but should not take down a healthy run.
func (s *Server) logJournal(rec journalRecord) {
	if s.jnl == nil {
		return
	}
	if err := s.jnl.append(rec); err != nil {
		log.Printf("parsimd: %v", err)
	}
}

// recoverJobs rebuilds the job store from replayed journal records.
// Finished jobs are rehydrated with their saved result; interrupted ones
// are re-queued, resuming from their last snapshot when it loads and
// verifies, from scratch when it is missing or corrupt.
func (s *Server) recoverJobs(recs []journalRecord) {
	type pending struct {
		req          *cluster.Submission
		checkpointed bool
		terminal     string
		result       json.RawMessage
		errMsg       string
		at           time.Time
	}
	byID := make(map[string]*pending)
	var order []string
	var maxSeq int64
	for _, rec := range recs {
		switch rec.Type {
		case recAccepted:
			if rec.Req == nil {
				continue
			}
			byID[rec.Job] = &pending{req: rec.Req, at: rec.At}
			order = append(order, rec.Job)
			if rec.Seq > maxSeq {
				maxSeq = rec.Seq
			}
		case recCheckpointed:
			if p := byID[rec.Job]; p != nil {
				p.checkpointed = true
			}
		case recDone, recFailed, recCancelled:
			if p := byID[rec.Job]; p != nil {
				p.terminal = rec.Type
				p.result = rec.Result
				p.errMsg = rec.Error
			}
		}
	}
	if maxSeq > s.nextID.Load() {
		s.nextID.Store(maxSeq)
	}
	now := time.Now()
	for _, id := range order {
		p := byID[id]
		j, _, err := s.buildJob(p.req)
		if err != nil {
			// The server's limits shrank (or the journal predates a format
			// change); the job cannot be re-admitted. Leave it out rather
			// than fabricating a result.
			log.Printf("parsimd: recovery: dropping job %s: %v", id, err)
			continue
		}
		j.id = id
		j.submitted = p.at
		if j.submitted.IsZero() {
			j.submitted = now
		}
		switch p.terminal {
		case recDone:
			j.state = jobDone
			// The journalled bytes are the ones the job served before the
			// restart, so its status response does not change.
			j.result = p.result
			j.started, j.finished = j.submitted, j.submitted
		case recFailed:
			j.state = jobFailed
			j.errMsg = p.errMsg
			j.started, j.finished = j.submitted, j.submitted
		case recCancelled:
			j.state = jobCancelled
			j.errMsg = p.errMsg
			j.started, j.finished = j.submitted, j.submitted
		default:
			// Interrupted mid-flight (or never started): run it again.
			if p.checkpointed {
				ck := s.ckptPath(id)
				if _, lerr := checkpoint.Load(ck); lerr == nil {
					j.cfg.ResumeFrom = ck
				} else {
					log.Printf("parsimd: recovery: job %s snapshot unusable (%v); restarting from scratch", id, lerr)
				}
			}
			if perr := s.queue.push(j); perr != nil {
				j.discard(now)
			}
		}
		s.jobs.add(j)
	}
}

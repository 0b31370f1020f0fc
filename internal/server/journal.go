package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"repro/internal/api"
	"repro/internal/resil"
)

// The durable job journal: an append-only write-ahead log of job state
// transitions under Options.DataDir. Each line is one record,
//
//	crc32(payload) as 8 hex chars, one space, JSON payload, newline
//
// so a torn final write (crash mid-append) is detectable: replay keeps
// the longest prefix of intact records and truncates the rest via the
// same temp-file-plus-rename hygiene the disk cache uses. Submissions
// are journaled synchronously *before* they are acknowledged — a job
// the client saw accepted is on disk — while start/finish marks are
// best-effort (losing one re-runs a job on restart; fingerprints make
// that idempotent).
const journalFile = "journal.wal"

// journalRecord is one WAL line. Type is "submit", "start", or
// "finish"; the other fields populate by type.
type journalRecord struct {
	Type string `json:"type"`
	Job  string `json:"job"`
	MS   int64  `json:"ms"` // wall-clock of the transition

	// submit
	Kind        string            `json:"kind,omitempty"`
	Run         *api.RunRequest   `json:"run,omitempty"`
	Sweep       *api.SweepRequest `json:"sweep,omitempty"`
	Fingerprint string            `json:"fingerprint,omitempty"`

	// finish
	State    string `json:"state,omitempty"`
	Error    string `json:"error,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
}

// journal is the open WAL handle. Appends serialize under mu and fsync
// per record: the journal is written once per job transition, not per
// simulated event, so durability is cheap relative to the work it
// protects.
type journal struct {
	mu   sync.Mutex
	fs   resil.FS
	path string
	f    resil.File
}

// encodeRecord renders one WAL line.
func encodeRecord(rec journalRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	line := make([]byte, 0, len(payload)+10)
	line = fmt.Appendf(line, "%08x %s\n", crc32.ChecksumIEEE(payload), payload)
	return line, nil
}

// decodeRecord parses one WAL line, rejecting torn or corrupt ones.
func decodeRecord(line []byte) (journalRecord, error) {
	var rec journalRecord
	if len(line) < 10 || line[8] != ' ' {
		return rec, fmt.Errorf("server: journal line too short or malformed")
	}
	sum, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return rec, fmt.Errorf("server: journal checksum not hex: %w", err)
	}
	payload := line[9:]
	if crc32.ChecksumIEEE(payload) != uint32(sum) {
		return rec, fmt.Errorf("server: journal checksum mismatch")
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Errorf("server: journal payload: %w", err)
	}
	// JSON decodes an empty omitempty list (`"values":[]`) as a non-nil
	// empty slice but encodes it as absent, so such a record would not
	// survive its own re-encoding. Return the record of the canonical
	// encoding instead: the one encodeRecord writes back.
	canon, err := json.Marshal(rec)
	if err != nil {
		return journalRecord{}, fmt.Errorf("server: journal payload: %w", err)
	}
	if !bytes.Equal(canon, payload) {
		rec = journalRecord{}
		if err := json.Unmarshal(canon, &rec); err != nil {
			return rec, fmt.Errorf("server: journal payload: %w", err)
		}
	}
	return rec, nil
}

// openJournal replays the WAL under dir (if any), truncates any torn
// tail, and returns the open handle plus the intact records in append
// order. fsys nil means the real filesystem.
func openJournal(dir string, fsys resil.FS) (*journal, []journalRecord, error) {
	if fsys == nil {
		fsys = resil.OS()
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("server: creating data dir: %w", err)
	}
	path := filepath.Join(dir, journalFile)
	recs, valid, total, err := replayJournal(fsys, path)
	if err != nil {
		return nil, nil, err
	}
	if valid < total {
		// A torn or corrupt tail: rewrite the intact prefix atomically so
		// the append handle below starts from a clean end-of-log.
		if err := rewritePrefix(fsys, path, valid); err != nil {
			return nil, nil, fmt.Errorf("server: truncating torn journal tail: %w", err)
		}
	}
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, nil, fmt.Errorf("server: opening journal: %w", err)
	}
	return &journal{fs: fsys, path: path, f: f}, recs, nil
}

// replayJournal reads every intact record from the WAL. It returns the
// records, the byte length of the valid prefix, and the file's total
// length; a missing file is an empty journal.
func replayJournal(fsys resil.FS, path string) ([]journalRecord, int, int, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, 0, 0, nil // no journal yet
	}
	var recs []journalRecord
	valid := 0
	for valid < len(data) {
		nl := bytes.IndexByte(data[valid:], '\n')
		if nl < 0 {
			break // unterminated tail — torn write
		}
		rec, err := decodeRecord(data[valid : valid+nl])
		if err != nil {
			break // corrupt record: everything after it is suspect
		}
		recs = append(recs, rec)
		valid += nl + 1
	}
	return recs, valid, len(data), nil
}

// rewritePrefix atomically replaces the WAL with its first n bytes.
func rewritePrefix(fsys resil.FS, path string, n int) error {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return err
	}
	tmp, err := fsys.CreateTemp(filepath.Dir(path), "journal-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data[:n]); err != nil {
		tmp.Close()
		fsys.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		fsys.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		fsys.Remove(tmp.Name())
		return err
	}
	return fsys.Rename(tmp.Name(), path)
}

// append writes one record and fsyncs it. An error means the record may
// not be durable; the caller decides whether that is fatal (submit) or
// merely observable (start/finish).
func (jl *journal) append(rec journalRecord) error {
	line, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if _, err := jl.f.Write(line); err != nil {
		return resil.Transient(err)
	}
	if err := jl.f.Sync(); err != nil {
		return resil.Transient(err)
	}
	return nil
}

// Close releases the append handle (tests; the daemon holds it for
// life).
func (jl *journal) Close() error {
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.f.Close()
}

// replayedJob is the aggregate of one job's journal records: what the
// daemon knew about it when it last ran.
type replayedJob struct {
	id          string
	kind        string
	run         api.RunRequest
	sweep       api.SweepRequest
	fingerprint string
	createdMS   int64
	startedMS   int64
	finishedMS  int64
	state       string // last journaled state; "" means queued/running
	errMsg      string
	attempts    int
}

// foldRecords aggregates raw records into per-job replay state, in
// submission order, and reports the highest job sequence number seen.
func foldRecords(recs []journalRecord) (jobs []*replayedJob, maxSeq uint64) {
	byID := make(map[string]*replayedJob)
	for _, rec := range recs {
		if n, ok := strings.CutPrefix(rec.Job, "job-"); ok {
			if seq, err := strconv.ParseUint(n, 10, 64); err == nil && seq > maxSeq {
				maxSeq = seq
			}
		}
		switch rec.Type {
		case "submit":
			rj := &replayedJob{id: rec.Job, kind: rec.Kind, fingerprint: rec.Fingerprint, createdMS: rec.MS}
			if rec.Run != nil {
				rj.run = *rec.Run
			}
			if rec.Sweep != nil {
				rj.sweep = *rec.Sweep
			}
			byID[rec.Job] = rj
			jobs = append(jobs, rj)
		case "start":
			if rj := byID[rec.Job]; rj != nil {
				rj.startedMS = rec.MS
				rj.attempts++
			}
		case "finish":
			if rj := byID[rec.Job]; rj != nil {
				rj.state = rec.State
				rj.errMsg = rec.Error
				rj.finishedMS = rec.MS
				if rec.Attempts > 0 {
					rj.attempts = rec.Attempts
				}
			}
		}
	}
	return jobs, maxSeq
}

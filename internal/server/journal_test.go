package server

// In-package unit tests for the WAL primitives and the Retry-After
// estimator; the HTTP-level crash and fault suites live in
// resilience_test.go (package server_test).

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/resil"
)

func testRecords() []journalRecord {
	run := api.RunRequest{SchemaVersion: api.SchemaVersion, Algorithm: api.AlgPredictive}
	return []journalRecord{
		{Type: "submit", Job: "job-1", MS: 100, Kind: "run", Run: &run, Fingerprint: "abcd"},
		{Type: "start", Job: "job-1", MS: 110},
		{Type: "finish", Job: "job-1", MS: 150, State: api.JobDone, Attempts: 1},
		{Type: "submit", Job: "job-2", MS: 200, Kind: "sweep", Sweep: &api.SweepRequest{SchemaVersion: api.SchemaVersion, Pattern: api.SweepTriangular}},
		{Type: "start", Job: "job-2", MS: 210},
	}
}

// TestJournalRoundTrip: records appended to a fresh journal replay back
// exactly, and the next daemon's job IDs continue after the replayed
// ones.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jl, recs, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	want := testRecords()
	for _, rec := range want {
		if err := jl.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	jl.Close()

	_, got, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || got[i].Job != want[i].Job || got[i].MS != want[i].MS || got[i].State != want[i].State {
			t.Errorf("record %d drifted: got %+v want %+v", i, got[i], want[i])
		}
	}

	jobs, maxSeq := foldRecords(got)
	if maxSeq != 2 {
		t.Errorf("maxSeq = %d, want 2", maxSeq)
	}
	if len(jobs) != 2 {
		t.Fatalf("folded %d jobs, want 2", len(jobs))
	}
	if jobs[0].state != api.JobDone || jobs[0].fingerprint != "abcd" || jobs[0].attempts != 1 {
		t.Errorf("job-1 folded wrong: %+v", jobs[0])
	}
	if jobs[1].state != "" || jobs[1].kind != "sweep" || jobs[1].startedMS != 210 {
		t.Errorf("job-2 folded wrong: %+v", jobs[1])
	}
}

// TestJournalTornTailTruncated: a crash mid-append leaves a torn final
// record; replay keeps the intact prefix, truncates the tail, and the
// journal keeps accepting appends.
func TestJournalTornTailTruncated(t *testing.T) {
	for name, tail := range map[string]string{
		"unterminated": `0075bcd1 {"type":"submit","job":"jo`,
		"bad_crc":      "deadbeef {\"type\":\"submit\",\"job\":\"job-9\",\"ms\":1}\n",
		"bad_json":     "890552f9 {\"type\":\"submit\",\n",
		"short_line":   "00\n",
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			jl, _, err := openJournal(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := testRecords()[:2]
			for _, rec := range want {
				if err := jl.append(rec); err != nil {
					t.Fatal(err)
				}
			}
			jl.Close()

			path := filepath.Join(dir, journalFile)
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			f.WriteString(tail)
			f.Close()

			jl2, recs, err := openJournal(dir, nil)
			if err != nil {
				t.Fatalf("replay with torn tail: %v", err)
			}
			if len(recs) != len(want) {
				t.Fatalf("replayed %d records, want the %d intact ones", len(recs), len(want))
			}
			// The tail is gone from disk, and the log accepts new records
			// at the truncation point.
			if err := jl2.append(testRecords()[2]); err != nil {
				t.Fatal(err)
			}
			jl2.Close()
			_, recs, err = openJournal(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 3 {
				t.Fatalf("after truncate+append, replayed %d records, want 3", len(recs))
			}
		})
	}
}

// TestJournalTornWriteInjected: the same torn-tail recovery, but with
// the tear produced by the fault injector exactly as a crash mid-write
// would — a prefix of the record durable, the rest lost.
func TestJournalTornWriteInjected(t *testing.T) {
	dir := t.TempDir()
	inj := resil.NewInjector(nil)
	jl, _, err := openJournal(dir, inj)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.append(testRecords()[0]); err != nil {
		t.Fatal(err)
	}
	inj.Inject(resil.Rule{Op: resil.OpWrite, Path: journalFile, Count: 1, TornBytes: 17, Err: os.ErrClosed})
	if err := jl.append(testRecords()[1]); err == nil {
		t.Fatal("torn append reported success")
	}
	jl.Close()

	_, recs, err := openJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Type != "submit" {
		t.Fatalf("want exactly the intact first record back, got %+v", recs)
	}
}

// FuzzDecodeRecord feeds arbitrary WAL lines — what replay reads back
// after a crash — to decodeRecord. It must never panic. A line it
// accepts must re-encode into exactly one WAL line that decodes back to
// the same record. Random bytes almost never carry a valid CRC, so each
// input is also tried with its checksum recomputed over the payload:
// that is what drives the fuzzer into the JSON decoding behind the CRC.
func FuzzDecodeRecord(f *testing.F) {
	for _, rec := range testRecords() {
		line, err := encodeRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.TrimSuffix(line, []byte("\n")))
	}
	f.Add([]byte(`0075bcd1 {"type":"submit","job":"jo`))              // torn line
	f.Add([]byte(`deadbeef {"type":"submit","job":"job-9","ms":1}`))  // bad CRC
	f.Add([]byte(`xyz0bcd1 {"type":"start","job":"job-1","ms":110}`)) // non-hex checksum
	// An empty omitempty list, behind a checksum the resummed pass fixes.
	f.Add([]byte(`00000000 {"type":"submit","job":"job-3","ms":1,"run":{"task":{"pattern":{"values":[]}}}}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		checkDecodeRoundTrip(t, line)
		if len(line) >= 9 {
			resummed := fmt.Appendf(nil, "%08x %s", crc32.ChecksumIEEE(line[9:]), line[9:])
			checkDecodeRoundTrip(t, resummed)
		}
	})
}

// checkDecodeRoundTrip asserts the FuzzDecodeRecord property for one line.
func checkDecodeRoundTrip(t *testing.T, line []byte) {
	rec, err := decodeRecord(line)
	if err != nil {
		return // rejecting a torn or corrupt line is fine; panicking is not
	}
	again, err := encodeRecord(rec)
	if err != nil {
		t.Fatalf("accepted record %+v does not re-encode: %v", rec, err)
	}
	if bytes.IndexByte(again, '\n') != len(again)-1 {
		t.Fatalf("re-encoded record is not one WAL line: %q", again)
	}
	back, err := decodeRecord(again[:len(again)-1])
	if err != nil {
		t.Fatalf("re-encoded line %q rejected: %v", again, err)
	}
	if !reflect.DeepEqual(back, rec) {
		t.Fatalf("round trip of %q drifted:\n got %+v\nwant %+v", line, back, rec)
	}
}

// TestRetryAfterSeconds pins the drain-rate estimate: backlog times
// per-job duration over the worker pool, clamped to [1s, 60s], with a
// 2s floor before any duration signal exists.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		queued, workers int
		avg             time.Duration
		want            int
	}{
		{0, 4, 0, 2},                     // no signal yet
		{10, 4, 0, 2},                    // still no signal
		{0, 4, 2 * time.Second, 1},       // near-empty queue drains fast
		{7, 4, 2 * time.Second, 4},       // 8 jobs × 2s / 4 workers
		{100, 1, 30 * time.Second, 60},   // clamped high
		{0, 8, 10 * time.Millisecond, 1}, // clamped low
		{5, 0, time.Second, 6},           // workers ≤0 treated as 1
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.queued, c.workers, c.avg); got != c.want {
			t.Errorf("retryAfterSeconds(%d, %d, %v) = %d, want %d", c.queued, c.workers, c.avg, got, c.want)
		}
	}
}

package client

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
)

// TestLegacyConsumerAgainstNewFrames pins the deprecation-window
// contract from the other side: a pre-envelope consumer — the exact
// parsing loop this package shipped before the Event envelope, reading
// only `id:`/`data:` lines and decoding the payload as a bare Job —
// must keep working against frames produced by the new server's
// emitter (api.Event.WriteSSE).
func TestLegacyConsumerAgainstNewFrames(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		for seq, state := range map[uint64]string{1: api.JobRunning, 2: api.JobDone} {
			ev := api.Event{Type: api.EventJob, Seq: seq, Job: &api.Job{
				SchemaVersion: api.SchemaVersion, ID: "job-1", Kind: "run", State: state, CreatedMS: 1,
			}}
			if err := ev.WriteSSE(w); err != nil {
				t.Error(err)
			}
		}
	}))
	defer ts.Close()

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// The legacy parser, verbatim: id:/data: prefixes only, bare Job.
	var lastEventID string
	states := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if evID, ok := strings.CutPrefix(line, "id: "); ok {
			lastEventID = evID
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var j api.Job
		if err := json.Unmarshal([]byte(data), &j); err != nil {
			t.Fatalf("legacy consumer cannot decode frame %q: %v", data, err)
		}
		if j.ID != "job-1" {
			t.Fatalf("legacy consumer decoded job %q", j.ID)
		}
		states[j.State] = true
	}
	if !states[api.JobRunning] || !states[api.JobDone] {
		t.Errorf("legacy consumer saw states %v, want running and done", states)
	}
	if lastEventID != "1" && lastEventID != "2" {
		t.Errorf("legacy consumer tracked Last-Event-ID %q", lastEventID)
	}
}

// TestOptions proves the construction surface: the variadic New applies
// options.
func TestOptions(t *testing.T) {
	hc := &http.Client{Timeout: 42 * time.Second}
	c := New("http://x/", WithHTTPClient(hc), WithPollInterval(7*time.Millisecond))
	if c.hc != hc {
		t.Error("WithHTTPClient not applied")
	}
	if c.pollInterval != 7*time.Millisecond {
		t.Error("WithPollInterval not applied")
	}
	if c.base != "http://x" {
		t.Errorf("base %q not trimmed", c.base)
	}
	if def := New("http://x"); def.hc != http.DefaultClient {
		t.Error("optionless New changed defaults")
	}
}

// TestJobsPage pins the paged request shape and cursor pass-through.
func TestJobsPage(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got := r.URL.Query().Get("limit"); got != "2" {
			t.Errorf("limit %q, want 2", got)
		}
		if got := r.URL.Query().Get("after"); got != "job-3" {
			t.Errorf("after %q, want job-3", got)
		}
		json.NewEncoder(w).Encode(api.JobPage{
			SchemaVersion: api.SchemaVersion,
			Jobs:          []api.Job{{ID: "job-4"}, {ID: "job-5"}},
			NextAfter:     "job-5",
		})
	}))
	defer ts.Close()
	page, err := New(ts.URL).JobsPage(context.Background(), 2, "job-3")
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Jobs) != 2 || page.NextAfter != "job-5" {
		t.Errorf("page %+v", page)
	}
	if _, err := New(ts.URL).JobsPage(context.Background(), 0, ""); err == nil {
		t.Error("non-positive limit accepted")
	}
}

// TestStreamSessionFoldsAndReconnects drives the full client-side story
// across a dropped stream: fold the first snapshot, lose the
// connection, resume via Last-Event-ID, fold the replayed diff, skip a
// heartbeat, and finish on the terminal snapshot.
func TestStreamSessionFoldsAndReconnects(t *testing.T) {
	base := api.SessionState{
		SimMS:   500,
		Nodes:   []api.SessionNode{{Util: 0.1}, {Util: 0.2}},
		Tasks:   []api.SessionTask{{Name: "t", Stages: [][]int{{0}}, Completed: 1}},
		Metrics: api.Metrics{Periods: 1, Completed: 1},
	}
	next := base.Clone()
	next.SimMS = 1000
	next.Nodes[0].Util = 0.4
	next.Tasks[0].Completed = 2
	next.Metrics.Completed = 2
	diff := api.DiffStates(base, next)

	running := api.Session{SchemaVersion: api.SchemaVersion, ID: "sess-1", State: api.SessionRunning, SampleMS: 500}
	done := running
	done.State = api.SessionDone

	var conns atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		switch conns.Add(1) {
		case 1:
			if r.Header.Get("Last-Event-ID") != "" {
				t.Errorf("first connect sent Last-Event-ID %q", r.Header.Get("Last-Event-ID"))
			}
			snap := base.Clone()
			(&api.Event{Type: api.EventSnapshot, Seq: 1, Session: &running, Snapshot: &snap}).WriteSSE(w)
			// Stream dies without a terminal frame.
		default:
			if got := r.Header.Get("Last-Event-ID"); got != "1" {
				t.Errorf("reconnect sent Last-Event-ID %q, want 1", got)
			}
			(&api.Event{Type: api.EventHeartbeat}).WriteSSE(w)
			(&api.Event{Type: api.EventDiff, Seq: 2, Session: &running, Diff: &diff}).WriteSSE(w)
			term := next.Clone()
			(&api.Event{Type: api.EventSnapshot, Seq: 3, Session: &done, Snapshot: &term}).WriteSSE(w)
		}
	}))
	defer ts.Close()

	var delays []time.Duration
	cl := New(ts.URL)
	cl.sleep = noSleep(&delays)
	var kinds []string
	st, sess, err := cl.StreamSession(context.Background(), "sess-1", func(ev api.Event) {
		kinds = append(kinds, ev.Type)
	})
	if err != nil {
		t.Fatalf("StreamSession across a dropped stream: %v", err)
	}
	if !st.Equal(next) {
		t.Errorf("folded state drifted:\n got %+v\nwant %+v", st, next)
	}
	if sess.State != api.SessionDone {
		t.Errorf("terminal stamp %q, want done", sess.State)
	}
	want := fmt.Sprintf("%v", []string{"snapshot", "heartbeat", "diff", "snapshot"})
	if got := fmt.Sprintf("%v", kinds); got != want {
		t.Errorf("frame kinds %v, want %v", got, want)
	}
	if conns.Load() != 2 || len(delays) != 1 {
		t.Errorf("%d connections, %d sleeps; want 2 and 1", conns.Load(), len(delays))
	}
}

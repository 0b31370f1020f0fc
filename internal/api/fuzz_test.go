package api

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParseSSE feeds arbitrary (event name, data) pairs — the untrusted
// bytes a client reads off a daemon's SSE stream — to ParseSSE. It must
// never panic. A frame it accepts must carry the type its name announced
// (job for unnamed and legacy "state" frames), and re-encoding it must
// reach a fixed point: writing the decoded event, parsing that frame and
// writing again yields the same bytes.
func FuzzParseSSE(f *testing.F) {
	for _, seed := range []struct{ name, file string }{
		{"", "job_run.json"},
		{EventJob, "job_failed.json"},
		{"state", "job_retrying.json"},
		{EventSnapshot, "event_snapshot.json"},
		{EventDiff, "event_diff.json"},
		{EventHeartbeat, "event_heartbeat.json"},
		{EventSnapshot, "session.json"}, // a bare session stamp is not an envelope
	} {
		data, err := os.ReadFile(filepath.Join("testdata", seed.file))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed.name, data)
	}
	f.Add("telemetry", []byte("{}"))
	f.Fuzz(func(t *testing.T, name string, data []byte) {
		ev, err := ParseSSE(name, data)
		if err != nil {
			return // rejecting a malformed frame is fine; panicking is not
		}
		want := name
		if name == "" || name == "state" {
			want = EventJob
		}
		if ev.Type != want {
			t.Fatalf("frame named %q decoded as type %q", name, ev.Type)
		}
		first := writeFrame(t, ev)
		again, err := ParseSSE(splitFrame(first))
		if err != nil {
			t.Fatalf("re-parsing our own frame %q: %v", first, err)
		}
		if second := writeFrame(t, again); second != first {
			t.Fatalf("re-encoding is not a fixed point:\n first %q\nsecond %q", first, second)
		}
	})
}

func writeFrame(t *testing.T, ev Event) string {
	t.Helper()
	var buf bytes.Buffer
	if err := ev.WriteSSE(&buf); err != nil {
		t.Fatalf("WriteSSE(%+v): %v", ev, err)
	}
	return buf.String()
}

// splitFrame extracts the `event:` name and `data:` payload of one frame
// WriteSSE produced (compact JSON never spans lines).
func splitFrame(frame string) (name string, data []byte) {
	for _, line := range strings.Split(frame, "\n") {
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = []byte(strings.TrimPrefix(line, "data: "))
		}
	}
	return name, data
}

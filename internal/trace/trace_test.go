package trace

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/task"
)

func TestLogAccumulates(t *testing.T) {
	l := NewLog()
	l.Adaptation(AdaptationEvent{At: sim.Second, Period: 1, Task: "T", Stage: 2,
		Kind: ActionReplicate, Procs: []int{3}})
	l.Adaptation(AdaptationEvent{At: 2 * sim.Second, Period: 2, Task: "T", Stage: 2,
		Kind: ActionShutdown, Procs: []int{3}})
	l.Record(&task.PeriodRecord{Period: 0, Items: 100,
		ReleasedAt: 0, CompletedAt: 500 * sim.Millisecond, Deadline: 990 * sim.Millisecond})
	if len(l.Events()) != 2 || len(l.Records()) != 1 {
		t.Fatalf("events=%d records=%d", len(l.Events()), len(l.Records()))
	}
	if s := l.Events()[0].String(); !strings.Contains(s, "replicate") {
		t.Errorf("event string %q", s)
	}
}

func TestWriteRecordsCSV(t *testing.T) {
	l := NewLog()
	l.Record(&task.PeriodRecord{Period: 3, Items: 42,
		ReleasedAt: 3 * sim.Second, CompletedAt: 3*sim.Second + 400*sim.Millisecond,
		Deadline: 3*sim.Second + 990*sim.Millisecond})
	var b strings.Builder
	if err := l.WriteRecordsCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "period,items,") {
		t.Errorf("missing header: %q", out)
	}
	if !strings.Contains(out, "3,42,3000.000,3400.000,400.000,false") {
		t.Errorf("row wrong: %q", out)
	}
}

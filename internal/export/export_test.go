package export

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/trace"
)

func sampleResult() core.Result {
	c := metrics.NewCollector(6)
	c.ObservePeriodStart(0.5, 0.25, 2)
	c.ObserveCompletion(false)
	c.ObserveCompletion(true)
	c.CountReplications(2)
	rec := &task.PeriodRecord{
		Period: 1, Items: 1000,
		ReleasedAt:  sim.Second,
		CompletedAt: sim.Second + 400*sim.Millisecond,
		Deadline:    sim.Second + 990*sim.Millisecond,
		Stages: []task.StageObservation{{
			ReadyAt: sim.Second, DoneAt: sim.Second + 300*sim.Millisecond,
			DeliveredAt: sim.Second + 350*sim.Millisecond, Replicas: 2,
		}},
	}
	return core.Result{
		Metrics: c.Finish(),
		Records: []*task.PeriodRecord{rec},
		Events: []trace.AdaptationEvent{{
			At: 2 * sim.Second, Period: 2, Task: "T", Stage: 2,
			Kind: trace.ActionReplicate, Procs: []int{3, 4},
		}},
	}
}

func TestFromResultFull(t *testing.T) {
	run := FromResult(sampleResult(), true, true)
	if run.Summary.Completed != 2 || run.Summary.Missed != 1 {
		t.Errorf("summary = %+v", run.Summary)
	}
	if len(run.Periods) != 1 {
		t.Fatalf("periods = %d", len(run.Periods))
	}
	p := run.Periods[0]
	if p.LatencyMS != 400 || p.Missed {
		t.Errorf("period = %+v", p)
	}
	if len(p.Stages) != 1 || p.Stages[0].ExecMS != 300 || p.Stages[0].CommMS != 50 {
		t.Errorf("stages = %+v", p.Stages)
	}
	if len(run.Events) != 1 || run.Events[0].Kind != "replicate" || run.Events[0].AtMS != 2000 {
		t.Errorf("events = %+v", run.Events)
	}
}

func TestFromResultSummaryOnly(t *testing.T) {
	run := FromResult(sampleResult(), false, false)
	if run.Periods != nil || run.Events != nil {
		t.Error("summary-only export carried detail")
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	var b strings.Builder
	if err := WriteJSON(&b, FromResult(sampleResult(), true, true)); err != nil {
		t.Fatal(err)
	}
	var back Run
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatal(err)
	}
	if back.Summary.Combined != FromMetrics(sampleResult().Metrics).Combined {
		t.Error("round trip changed the combined metric")
	}
	for _, key := range []string{`"missed_pct"`, `"combined_metric"`, `"latency_ms"`, `"procs"`} {
		if !strings.Contains(b.String(), key) {
			t.Errorf("JSON missing %s", key)
		}
	}
}

// TestFromResultConvertsRecordsAndEvents pins the derived values of the
// period and event converters: they must agree with the per-period CSV
// (latency, stage exec/comm split, replica count), and an event without
// processors must leave "procs" out of the JSON entirely.
func TestFromResultConvertsRecordsAndEvents(t *testing.T) {
	res := core.Result{
		Records: []*task.PeriodRecord{{
			Period: 0, Items: 50,
			ReleasedAt: 0, CompletedAt: 400 * sim.Millisecond,
			Deadline: sim.Second,
			Stages: []task.StageObservation{
				{ReadyAt: 0, DoneAt: 300 * sim.Millisecond, DeliveredAt: 350 * sim.Millisecond, Replicas: 1},
				{ReadyAt: 350 * sim.Millisecond, DoneAt: 400 * sim.Millisecond, DeliveredAt: 400 * sim.Millisecond, Replicas: 2},
			},
		}},
		Events: []trace.AdaptationEvent{
			{At: 2 * sim.Second, Period: 2, Task: "aaw", Stage: 1, Kind: trace.ActionReplicate, Procs: []int{3}},
			{At: 3 * sim.Second, Period: 3, Task: "aaw", Stage: 1, Kind: trace.ActionAllocFailure},
		},
	}
	var b strings.Builder
	if err := WriteJSON(&b, FromResult(res, true, true)); err != nil {
		t.Fatal(err)
	}
	var back Run
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatal(err)
	}
	r0 := back.Periods[0]
	if r0.LatencyMS != 400 {
		t.Errorf("latency_ms = %v, want 400", r0.LatencyMS)
	}
	if r0.Missed {
		t.Error("record 0 marked missed; completed well before its deadline")
	}
	if got := r0.Stages[0]; got.ExecMS != 300 || got.CommMS != 50 || got.Replicas != 1 {
		t.Errorf("stage 0 = %+v, want exec 300ms, comm 50ms, 1 replica", got)
	}
	if e := back.Events[0]; e.AtMS != 2000 || e.Kind != "replicate" || len(e.Procs) != 1 {
		t.Errorf("event 0 = %+v", e)
	}
	if e := back.Events[1]; e.Procs != nil {
		t.Errorf("event without procs round-tripped as %v, want nil", e.Procs)
	}
	if n := strings.Count(b.String(), `"procs"`); n != 1 {
		t.Errorf(`"procs" appears %d times, want once (omitempty on the event without processors)`, n)
	}
}

package core

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// runWithTelemetry drives the benchmark task with a recorder attached.
func runWithTelemetry(t *testing.T, alg Algorithm, pattern workload.Pattern, clockSync bool) *telemetry.Recorder {
	t.Helper()
	cfg := DefaultConfig()
	cfg.ClockSync = clockSync
	rec := telemetry.New()
	if _, err := RunContext(context.Background(), cfg, alg, []TaskSetup{benchSetup(pattern)}, &Observer{Telemetry: rec}); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestTelemetryDisabledByDefault: a recorder reaches a run only through
// the RunContext probe. Config — what the run fingerprint hashes — has
// no pointer, interface, func, map or channel anywhere in its type tree,
// so no Config can carry one, and Run (which passes no probe) is always
// unrecorded.
func TestTelemetryDisabledByDefault(t *testing.T) {
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		case reflect.Slice, reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Pointer, reflect.Interface, reflect.Func, reflect.Map, reflect.Chan:
			t.Errorf("%s is a %v: Config must stay a plain value so it is exactly a run's identity", path, typ.Kind())
		}
	}
	walk(reflect.TypeOf(Config{}), "Config")
}

func TestTelemetryCapturesRun(t *testing.T) {
	pattern := workload.NewTriangular(500, 3000, 60, 3)
	periods := pattern.Periods()
	rec := runWithTelemetry(t, Predictive, pattern, false)
	snap := rec.Snapshot()

	if len(snap.Stages) == 0 || len(snap.Tasks) != 1 {
		t.Fatalf("stages=%d tasks=%d", len(snap.Stages), len(snap.Tasks))
	}
	task := snap.Tasks[0]
	if task.Instances != uint64(periods) {
		t.Errorf("instances = %d, want %d", task.Instances, periods)
	}
	if task.Latency.Count != uint64(periods) || task.Latency.P50MS <= 0 {
		t.Errorf("e2e latency = %+v", task.Latency)
	}
	// Quantiles must be ordered and inside the envelope.
	l := task.Latency
	if !(l.MinMS <= l.P50MS && l.P50MS <= l.P95MS && l.P95MS <= l.P99MS && l.P99MS <= l.MaxMS) {
		t.Errorf("latency quantiles out of order: %+v", l)
	}
	for _, st := range snap.Stages {
		if st.Latency.Count != uint64(periods) {
			t.Errorf("stage %d latency count = %d, want %d", st.Stage, st.Latency.Count, periods)
		}
		if st.Slack.Count != uint64(periods) {
			t.Errorf("stage %d slack count = %d", st.Stage, st.Slack.Count)
		}
	}
	// Every stage of every period was predicted and observed.
	if len(snap.Forecast) != len(snap.Stages) {
		t.Fatalf("forecast series = %d, stages = %d", len(snap.Forecast), len(snap.Stages))
	}
	for _, fs := range snap.Forecast {
		if fs.Exec.Matched != periods {
			t.Errorf("stage %d exec forecasts matched = %d, want %d", fs.Stage, fs.Exec.Matched, periods)
		}
		if fs.Exec.PendingNow != 0 {
			t.Errorf("stage %d has %d dangling predictions", fs.Stage, fs.Exec.PendingNow)
		}
		if fs.Stage < len(snap.Forecast)-1 && fs.Comm.Matched != periods {
			t.Errorf("stage %d comm forecasts matched = %d, want %d", fs.Stage, fs.Comm.Matched, periods)
		}
		if fs.Stage == len(snap.Forecast)-1 && fs.Comm.Matched != 0 {
			t.Errorf("final stage tracked %d comm forecasts, want 0", fs.Comm.Matched)
		}
	}
	// The pipeline sends messages between consecutive stages every period.
	if snap.Network.WireMsgs+snap.Network.LocalMsgs == 0 {
		t.Error("no messages recorded")
	}
	if snap.QueueWait.Count == 0 {
		t.Error("no queue waits recorded (cpu observer not wired)")
	}
	if snap.Spans == 0 {
		t.Error("no spans captured")
	}
	// The triangular ramp forces replication under the predictive
	// allocator, so forecast evaluations and adaptations must appear.
	var evals uint64
	for _, st := range snap.Stages {
		evals += st.ForecastEvals
	}
	if evals == 0 {
		t.Error("no Figure 5 forecast evaluations counted (probe not wired)")
	}
	if snap.Counters[`rm_adaptations_total{kind="replicate"}`] == 0 {
		t.Errorf("no replicate adaptations counted: %v", snap.Counters)
	}
	if snap.Gauges["rm_net_util"] < 0 {
		t.Errorf("net util gauge = %v", snap.Gauges["rm_net_util"])
	}
}

func TestTelemetryClockSyncTrafficIsSystemScoped(t *testing.T) {
	rec := runWithTelemetry(t, Predictive, workload.NewConstant(500, 10), true)
	var sync, task int
	for _, s := range rec.Spans() {
		if s.Kind != telemetry.KindMessage {
			continue
		}
		if s.Task == "" {
			sync++
		} else {
			task++
		}
	}
	if sync == 0 {
		t.Error("clock-sync exchanges produced no system-scoped message spans")
	}
	if task == 0 {
		t.Error("no task-scoped message spans")
	}
}

func TestTelemetryExportersOnRealRun(t *testing.T) {
	rec := runWithTelemetry(t, Predictive, workload.NewConstant(1500, 10), false)

	var prom bytes.Buffer
	if err := rec.WritePrometheus(&prom); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, want := range []string{"rm_e2e_latency_count", "rm_stage_latency_bucket", "rm_cpu_util"} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus output missing %s", want)
		}
	}

	var snapJSON bytes.Buffer
	if err := rec.WriteSnapshot(&snapJSON); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	var snapDoc map[string]any
	if err := json.Unmarshal(snapJSON.Bytes(), &snapDoc); err != nil {
		t.Fatalf("snapshot JSON invalid: %v", err)
	}

	var chrome bytes.Buffer
	if err := rec.WriteChromeTrace(&chrome); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var traceDoc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &traceDoc); err != nil {
		t.Fatalf("chrome trace JSON invalid: %v", err)
	}
	if len(traceDoc.TraceEvents) < 10 {
		t.Errorf("chrome trace has only %d events", len(traceDoc.TraceEvents))
	}
}

func TestTelemetryRunIdenticalResults(t *testing.T) {
	// Attaching a recorder must not perturb the simulation itself: every
	// field of the Result — metrics, period records, adaptation events,
	// engine event count, clock offset — must match the run without it.
	// The sampler case compares against a sampler-only run, because the
	// sample events themselves count in EventsFired.
	setups := []TaskSetup{benchSetup(workload.NewTriangular(500, 3000, 30, 2))}
	sample := func(Observation) {}
	cases := map[string]struct{ base, probe *Observer }{
		"recorder": {
			base:  nil,
			probe: &Observer{Telemetry: telemetry.New()},
		},
		"recorder+sampler": {
			base:  &Observer{Every: sim.Second, OnSample: sample},
			probe: &Observer{Telemetry: telemetry.New(), Every: sim.Second, OnSample: sample},
		},
	}
	for name, tc := range cases {
		want, err := RunContext(context.Background(), DefaultConfig(), Predictive, setups, tc.base)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(want.Events) == 0 {
			t.Fatalf("%s: baseline run has no adaptation events; the comparison would be vacuous", name)
		}
		got, err := RunContext(context.Background(), DefaultConfig(), Predictive, setups, tc.probe)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: telemetry changed the run result:\n"+
				"without %+v, %d records, %d events, %d fired\n"+
				"with    %+v, %d records, %d events, %d fired", name,
				want.Metrics, len(want.Records), len(want.Events), want.EventsFired,
				got.Metrics, len(got.Records), len(got.Events), got.EventsFired)
		}
		if tc.probe.Telemetry.Snapshot().Counters[`rm_adaptations_total{kind="replicate"}`] == 0 {
			t.Errorf("%s: recorder saw no replications", name)
		}
	}
}

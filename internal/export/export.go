// Package export serializes run results to JSON, and the per-period
// trace to CSV, for downstream tooling (plotting scripts, dashboards,
// regression tracking). Times are exported in milliseconds as floats,
// the unit the paper reports in.
package export

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/task"
	"repro/internal/trace"
)

// Summary is the JSON shape of a run's aggregate metrics.
type Summary struct {
	Periods        int     `json:"periods"`
	Completed      int     `json:"completed"`
	Missed         int     `json:"missed"`
	MissedPct      float64 `json:"missed_pct"`
	CPUUtilPct     float64 `json:"cpu_util_pct"`
	NetUtilPct     float64 `json:"net_util_pct"`
	MeanReplicas   float64 `json:"mean_replicas"`
	ReplicaUsePct  float64 `json:"replica_use_pct"`
	Combined       float64 `json:"combined_metric"`
	Replications   int     `json:"replications"`
	Shutdowns      int     `json:"shutdowns"`
	AllocFailures  int     `json:"alloc_failures"`
	UnfinishedWork int     `json:"unfinished"`
}

// Period is the JSON shape of one completed instance.
type Period struct {
	Period    int     `json:"period"`
	Items     int     `json:"items"`
	LatencyMS float64 `json:"latency_ms"`
	Missed    bool    `json:"missed"`
	Stages    []Stage `json:"stages"`
}

// Stage is one stage's observation within a period.
type Stage struct {
	ExecMS   float64 `json:"exec_ms"`
	CommMS   float64 `json:"comm_ms"`
	Replicas int     `json:"replicas"`
}

// Event is the JSON shape of one adaptation action.
type Event struct {
	AtMS   float64 `json:"at_ms"`
	Period int     `json:"period"`
	Task   string  `json:"task"`
	Stage  int     `json:"stage"`
	Kind   string  `json:"kind"`
	Procs  []int   `json:"procs,omitempty"`
}

// Run is a full run export.
type Run struct {
	Summary Summary  `json:"summary"`
	Periods []Period `json:"periods,omitempty"`
	Events  []Event  `json:"events,omitempty"`
}

// FromMetrics converts aggregate metrics.
func FromMetrics(m metrics.RunMetrics) Summary {
	return Summary{
		Periods:        m.Periods,
		Completed:      m.Completed,
		Missed:         m.Missed,
		MissedPct:      m.MissedPct(),
		CPUUtilPct:     m.CPUUtilPct(),
		NetUtilPct:     m.NetUtilPct(),
		MeanReplicas:   m.MeanReplicas,
		ReplicaUsePct:  m.ReplicaUsePct(),
		Combined:       m.Combined(),
		Replications:   m.Replications,
		Shutdowns:      m.Shutdowns,
		AllocFailures:  m.AllocFailures,
		UnfinishedWork: m.UnfinishedWork,
	}
}

// FromRecord converts one period record.
func FromRecord(r *task.PeriodRecord) Period {
	p := Period{
		Period:    r.Period,
		Items:     r.Items,
		LatencyMS: r.EndToEnd().Milliseconds(),
		Missed:    r.Missed(),
	}
	for _, st := range r.Stages {
		p.Stages = append(p.Stages, Stage{
			ExecMS:   st.ExecLatency().Milliseconds(),
			CommMS:   st.CommLatency().Milliseconds(),
			Replicas: st.Replicas,
		})
	}
	return p
}

// FromEvent converts one adaptation event.
func FromEvent(e trace.AdaptationEvent) Event {
	return Event{
		AtMS:   e.At.Milliseconds(),
		Period: e.Period,
		Task:   e.Task,
		Stage:  e.Stage,
		Kind:   string(e.Kind),
		Procs:  e.Procs,
	}
}

// FromResult converts a full run: summary, periods and events.
func FromResult(res core.Result) Run {
	out := Run{Summary: FromMetrics(res.Metrics)}
	for _, r := range res.Records {
		out.Periods = append(out.Periods, FromRecord(r))
	}
	for _, e := range res.Events {
		out.Events = append(out.Events, FromEvent(e))
	}
	return out
}

// WriteJSON writes the run as indented JSON.
func WriteJSON(w io.Writer, run Run) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(run); err != nil {
		return fmt.Errorf("export: %w", err)
	}
	return nil
}

// WriteRecordsCSV writes one row per completed period.
func WriteRecordsCSV(w io.Writer, records []*task.PeriodRecord) error {
	if _, err := fmt.Fprintln(w, "period,items,released_ms,completed_ms,latency_ms,missed"); err != nil {
		return err
	}
	for _, r := range records {
		_, err := fmt.Fprintf(w, "%d,%d,%.3f,%.3f,%.3f,%t\n",
			r.Period, r.Items,
			r.ReleasedAt.Milliseconds(), r.CompletedAt.Milliseconds(),
			r.EndToEnd().Milliseconds(), r.Missed())
		if err != nil {
			return err
		}
	}
	return nil
}

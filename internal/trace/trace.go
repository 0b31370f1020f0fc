// Package trace records what an adaptive run did: one row per completed
// period and one event per adaptation action. The period rows are
// exportable as CSV for inspection and plotting; internal/export owns
// the JSON form of both.
package trace

import (
	"fmt"
	"io"

	"repro/internal/sim"
	"repro/internal/task"
)

// ActionKind labels an adaptation event.
type ActionKind string

// Adaptation actions.
const (
	ActionReplicate    ActionKind = "replicate"
	ActionShutdown     ActionKind = "shutdown"
	ActionAllocFailure ActionKind = "alloc-failure"
	ActionNodeDown     ActionKind = "node-down"
	ActionNodeUp       ActionKind = "node-up"
	ActionFailover     ActionKind = "failover"
	// ActionStretch marks a period launch skipped by the period-stretch
	// policy; ActionShed marks optional items dropped by imprecise-shed.
	ActionStretch ActionKind = "stretch-skip"
	ActionShed    ActionKind = "shed"
)

// AdaptationEvent is one resource-management action.
type AdaptationEvent struct {
	At     sim.Time
	Period int
	Task   string
	Stage  int
	Kind   ActionKind
	// Procs lists processors added (replicate) or removed (shutdown).
	Procs []int
}

func (e AdaptationEvent) String() string {
	return fmt.Sprintf("t=%v period=%d task=%s stage=%d %s procs=%v",
		e.At, e.Period, e.Task, e.Stage, e.Kind, e.Procs)
}

// Log accumulates events and period records.
type Log struct {
	events  []AdaptationEvent
	records []*task.PeriodRecord
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// Adaptation appends an event.
func (l *Log) Adaptation(e AdaptationEvent) { l.events = append(l.events, e) }

// Record appends a completed period record.
func (l *Log) Record(r *task.PeriodRecord) { l.records = append(l.records, r) }

// Events returns the recorded adaptation events.
func (l *Log) Events() []AdaptationEvent { return l.events }

// Records returns the completed period records.
func (l *Log) Records() []*task.PeriodRecord { return l.records }

// WriteRecordsCSV emits one row per completed period.
func (l *Log) WriteRecordsCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "period,items,released_ms,completed_ms,latency_ms,missed"); err != nil {
		return err
	}
	for _, r := range l.records {
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

package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestObservedRunMatchesUnobserved proves the observation hook watches
// without shaping: the same spec run with and without an observer yields
// identical metrics and period records. (EventsFired legitimately
// differs — the sample events themselves fire.)
func TestObservedRunMatchesUnobserved(t *testing.T) {
	cfg := DefaultConfig()
	setups := []TaskSetup{benchSetup(workload.NewTriangular(500, 9000, 30, 1))}
	plain, err := Run(cfg, Predictive, setups)
	if err != nil {
		t.Fatal(err)
	}
	var samples int
	observed, err := RunContext(context.Background(), cfg, Predictive, setups, &Observer{
		Every:    100 * sim.Millisecond,
		OnSample: func(Observation) { samples++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Fatal("observer never sampled")
	}
	if !reflect.DeepEqual(plain.Metrics, observed.Metrics) {
		t.Errorf("observed run drifted from unobserved:\n got %+v\nwant %+v", observed.Metrics, plain.Metrics)
	}
	if !reflect.DeepEqual(plain.Records, observed.Records) {
		t.Errorf("observed run's period records differ from unobserved")
	}
}

// TestObserverSampling pins the sampling contract: cadence from Every to
// the horizon, monotone times, copied placements, monotone counters, and
// a Final observation whose metrics equal the returned result's.
func TestObserverSampling(t *testing.T) {
	cfg := DefaultConfig()
	pattern := workload.NewConstant(4000, 10) // horizon 10s at the 1s period
	setups := []TaskSetup{benchSetup(pattern)}
	every := 500 * sim.Millisecond
	var obs []Observation
	res, err := RunContext(context.Background(), cfg, Predictive, setups, &Observer{
		Every:    every,
		OnSample: func(o Observation) { obs = append(obs, o) },
	})
	if err != nil {
		t.Fatal(err)
	}
	wantPeriodic := int(sim.Time(10) * sim.Second / every) // t=Every..horizon inclusive
	if len(obs) != wantPeriodic+1 {
		t.Fatalf("got %d observations, want %d periodic + 1 final", len(obs), wantPeriodic)
	}
	for i, o := range obs[:wantPeriodic] {
		if o.Final {
			t.Errorf("observation %d marked final", i)
		}
		if want := sim.Time(i+1) * every; o.At != want {
			t.Errorf("observation %d at %v, want %v", i, o.At, want)
		}
	}
	final := obs[len(obs)-1]
	if !final.Final {
		t.Fatal("last observation not marked final")
	}
	if !reflect.DeepEqual(final.Metrics, res.Metrics) {
		t.Errorf("final observation metrics != result metrics:\n got %+v\nwant %+v", final.Metrics, res.Metrics)
	}
	prevCompleted := -1
	for i, o := range obs {
		if len(o.Nodes) != cfg.NumNodes {
			t.Fatalf("observation %d: %d nodes, want %d", i, len(o.Nodes), cfg.NumNodes)
		}
		if len(o.Tasks) != 1 {
			t.Fatalf("observation %d: %d tasks, want 1", i, len(o.Tasks))
		}
		task := o.Tasks[0]
		if task.Completed < prevCompleted {
			t.Errorf("observation %d: completed went backwards (%d < %d)", i, task.Completed, prevCompleted)
		}
		prevCompleted = task.Completed
		if len(task.Stages) == 0 {
			t.Fatalf("observation %d: no stage placements", i)
		}
		for st, procs := range task.Stages {
			if len(procs) == 0 {
				t.Errorf("observation %d: stage %d has no replicas", i, st)
			}
		}
	}
	// Placement slices must be copies: mutating one sample can't corrupt
	// another (or the run, which already finished here).
	obs[0].Tasks[0].Stages[0][0] = -99
	if obs[1].Tasks[0].Stages[0][0] == -99 {
		t.Error("stage placements alias between observations")
	}
	if final.Metrics.Completed != 10 {
		t.Errorf("final completed = %d, want 10", final.Metrics.Completed)
	}
}

// TestObserverValidation covers the rejection paths.
func TestObserverValidation(t *testing.T) {
	cfg := DefaultConfig()
	setups := []TaskSetup{benchSetup(workload.NewConstant(500, 2))}
	cases := map[string]*Observer{
		"empty":      {},
		"no-cadence": {OnSample: func(Observation) {}},
		"no-hook":    {Every: sim.Second},
	}
	for name, o := range cases {
		if _, err := RunContext(context.Background(), cfg, Predictive, setups, o); err == nil {
			t.Errorf("%s: want an error", name)
		}
	}
}

// TestObservedLanesRejected: RunContext refuses every kind of probe on a
// lane-partitioned run, which a plain Run of the same spec accepts.
func TestObservedLanesRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Lanes = 2
	setups := []TaskSetup{benchSetup(workload.NewConstant(500, 2)), benchSetup(workload.NewConstant(500, 2))}
	setups[1].Spec.Name += "-2"
	if _, err := Run(cfg, Predictive, setups); err != nil {
		t.Fatalf("unobserved lane run: %v", err)
	}
	sample := func(Observation) {}
	cases := map[string]*Observer{
		"sampler":  {Every: sim.Second, OnSample: sample},
		"recorder": {Telemetry: telemetry.New()},
		"both":     {Telemetry: telemetry.New(), Every: sim.Second, OnSample: sample},
	}
	for name, o := range cases {
		_, err := RunContext(context.Background(), cfg, Predictive, setups, o)
		if err == nil || !strings.Contains(err.Error(), "lane partitioning") {
			t.Errorf("%s: err = %v, want the lane refusal", name, err)
		}
	}
}

package core

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Observer is the probe attached to one run: a telemetry recorder, a
// live sampler, or both. The sampler is the substrate of rmserved's
// session mode: the session layer turns each Observation into a wire
// snapshot/diff and fans it out to SSE subscribers. The recorder
// collects spans, metrics and the eq. (3)/(5) forecast residuals (see
// internal/telemetry).
//
// The probe is deliberately NOT part of Config. Config is what shapes a
// run's result and therefore what the content-addressed fingerprint
// hashes; a probe watches a run without shaping it, so it is a separate
// RunContext argument and can never split the run cache or perturb a
// golden. A nil observer takes code paths byte-identical to the
// pre-observer build.
type Observer struct {
	// Telemetry, when non-nil, receives the run's spans, metrics and
	// forecast residuals. Every instrumentation site degrades to a single
	// nil check without it.
	Telemetry *telemetry.Recorder
	// Every is the sampling cadence in sim time; must be > 0 when
	// OnSample is set. Samples fire from t=Every up to the workload
	// pattern horizon, plus one final observation after the engine
	// drains.
	Every sim.Time
	// OnSample, when non-nil, receives each observation on the simulation
	// goroutine. It may block (the session layer uses this for wall-clock
	// pacing and pause), but must not call back into the engine or mutate
	// anything the run reads — the capture hands it copies only.
	OnSample func(Observation)
}

func (o *Observer) validate() error {
	switch {
	case o.OnSample == nil && o.Telemetry == nil:
		return fmt.Errorf("core: observer has neither a telemetry recorder nor an OnSample callback")
	case o.OnSample != nil && o.Every <= 0:
		return fmt.Errorf("core: observer cadence must be > 0 (got %v)", o.Every)
	}
	return nil
}

// Observation is one sampled view of the simulated system. All slices
// are freshly allocated per sample: the callback may retain them.
type Observation struct {
	// At is the sim time of the sample.
	At sim.Time
	// Final marks the post-drain observation: the run is complete and
	// Metrics equals the returned Result.Metrics exactly.
	Final bool
	// Nodes holds per-node state, indexed by node id.
	Nodes []NodeObservation
	// Tasks holds per-task state in setup order.
	Tasks []TaskObservation
	// Metrics is the interim run summary (the collector folded down as
	// of this sample; counters only grow between samples).
	Metrics metrics.RunMetrics
}

// NodeObservation is one node's sampled state.
type NodeObservation struct {
	// Util is the node's total utilization over the task set's most
	// recent monitoring window (the same raw quantity the repair and
	// threshold logic read), in [0,1].
	Util float64
	// Down reports whether the node is currently crashed.
	Down bool
}

// TaskObservation is one runtime task's sampled state.
type TaskObservation struct {
	Name string
	// Stages holds the replica placements per pipeline stage: Stages[i]
	// is the node set hosting subtask i.
	Stages [][]int
	// Completed and Missed count this task's finished instances so far;
	// InFlight the instances currently executing.
	Completed int
	Missed    int
	InFlight  int
}

// scheduleObservations pre-schedules every sample event up to the
// pattern horizon. Pre-scheduling (rather than self-rescheduling) means
// the engine still drains to quiescence once the workload ends, and —
// because this runs after the rest of construction — every event of the
// unobserved build keeps its sequence number, so the simulation's event
// order is unchanged.
func (s *system) scheduleObservations(obs *Observer, horizon sim.Time) {
	for t := obs.Every; t <= horizon; t += obs.Every {
		s.eng.Schedule(t, func() { obs.OnSample(s.captureObservation()) })
	}
}

// captureObservation copies the live state into a fresh Observation.
// Read-only with respect to the run: meters are not advanced (node
// utilization comes from the anchor task's last monitoring window) and
// the collector fold is pure.
func (s *system) captureObservation() Observation {
	o := Observation{
		At:      s.eng.Now(),
		Nodes:   make([]NodeObservation, len(s.procs)),
		Tasks:   make([]TaskObservation, len(s.tasks)),
		Metrics: s.collector.Finish(),
	}
	rt0 := s.tasks[0]
	for i := range s.procs {
		o.Nodes[i] = NodeObservation{Util: rt0.rawSnapshot[i], Down: s.down[i]}
	}
	for ti, rt := range s.tasks {
		stages := make([][]int, len(rt.setup.Spec.Subtasks))
		for st := range stages {
			stages[st] = rt.dep.AppendReplicas(st, nil)
		}
		o.Tasks[ti] = TaskObservation{
			Name:      rt.setup.Spec.Name,
			Stages:    stages,
			Completed: rt.completed,
			Missed:    rt.missed,
			InFlight:  rt.inFlight,
		}
	}
	return o
}

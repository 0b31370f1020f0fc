// Package metrics accumulates the evaluation quantities of the paper's
// §5.2: missed-deadline ratio, average CPU utilization, average network
// utilization, average number of subtask replicas, and the combined
// performance metric
//
//	C = MD + U_CPU + U_Net + R̄/Max(R)
//
// where all four terms are percentages (the replica term is the fraction
// of the maximum exploitable concurrency, which is bounded by the number
// of processors).
package metrics

import "fmt"

// RunMetrics summarizes one experiment run. It is also the wire form of
// a run's metrics (api.Metrics is an alias): the json tags are the
// rmserved schema, pinned byte for byte by the api golden fixtures.
type RunMetrics struct {
	Periods        int     `json:"periods"`         // instances released
	Completed      int     `json:"completed"`       // instances finished
	Missed         int     `json:"missed"`          // instances past their deadline
	MeanCPUUtil    float64 `json:"mean_cpu_util"`   // 0..1, averaged over nodes and periods
	MeanNetUtil    float64 `json:"mean_net_util"`   // 0..1, averaged over periods
	MeanReplicas   float64 `json:"mean_replicas"`   // mean replicas per replicable subtask, averaged over periods
	MaxReplicas    float64 `json:"max_replicas"`    // Max(R): the processor count
	Replications   int     `json:"replications"`    // replicas added
	Shutdowns      int     `json:"shutdowns"`       // replicas removed
	AllocFailures  int     `json:"alloc_failures"`  // Figure 5 FAILURE returns
	UnfinishedWork int     `json:"unfinished_work"` // instances still running at drain time

	// Chaos-layer observations; all zero on a clean run.
	DroppedMessages int     `json:"dropped_messages,omitempty"` // segment messages lost (drop prob or partition)
	Retransmissions int     `json:"retransmissions,omitempty"`  // inter-subtask handoffs resent after timeout
	Crashes         int     `json:"crashes,omitempty"`          // node-down transitions
	Recoveries      int     `json:"recoveries,omitempty"`       // node-up transitions
	MeanRecoveryMS  float64 `json:"mean_recovery_ms,omitempty"` // mean crash → first met deadline, milliseconds

	// Graceful-degradation observations; all zero under policies that
	// never degrade (the paper's algorithms and the static baselines).
	ShedItems        int `json:"shed_items,omitempty"`        // optional items dropped before launch (imprecise-shed)
	StretchedPeriods int `json:"stretched_periods,omitempty"` // period launches skipped by elastic stretching (period-stretch)
}

// MissedPct returns the missed-deadline percentage MD. Instances that
// never finished (work lost to node crashes) count as missed: a result
// that never arrives is at least as bad as a late one.
//
// Completed can legitimately EXCEED Periods: period starts are sampled
// only against the first task's boundaries (so multi-task runs don't
// double-count utilization windows), while completions count every
// task's instances. In that regime the per-anchor-task period count is
// not a meaningful denominator, so the ratio falls back to completions
// and no instance is inferred lost.
func (m RunMetrics) MissedPct() float64 {
	if m.Completed >= m.Periods {
		if m.Completed == 0 {
			return 0
		}
		return 100 * float64(m.Missed) / float64(m.Completed)
	}
	lost := m.Periods - m.Completed
	return 100 * float64(m.Missed+lost) / float64(m.Periods)
}

// CPUUtilPct returns U_CPU in percent.
func (m RunMetrics) CPUUtilPct() float64 { return 100 * m.MeanCPUUtil }

// NetUtilPct returns U_Net in percent.
func (m RunMetrics) NetUtilPct() float64 { return 100 * m.MeanNetUtil }

// ReplicaUsePct returns 100·R̄/Max(R).
func (m RunMetrics) ReplicaUsePct() float64 {
	if m.MaxReplicas == 0 {
		return 0
	}
	return 100 * m.MeanReplicas / m.MaxReplicas
}

// Combined returns the paper's combined performance metric C (smaller is
// better).
func (m RunMetrics) Combined() float64 {
	return m.MissedPct() + m.CPUUtilPct() + m.NetUtilPct() + m.ReplicaUsePct()
}

func (m RunMetrics) String() string {
	return fmt.Sprintf("MD=%.1f%% CPU=%.1f%% Net=%.1f%% R̄=%.2f (%.1f%%) C=%.1f",
		m.MissedPct(), m.CPUUtilPct(), m.NetUtilPct(), m.MeanReplicas, m.ReplicaUsePct(), m.Combined())
}

// Collector accumulates per-period observations into RunMetrics.
type Collector struct {
	maxReplicas float64

	periods      int
	completed    int
	missed       int
	cpuSum       float64
	netSum       float64
	replicaSum   float64
	samples      int
	replications int
	shutdowns    int
	failures     int

	dropped     int
	retransmits int
	crashes     int
	recoveries  int
	recoverySum float64 // milliseconds
	recoveryObs int

	shedItems        int
	stretchedPeriods int
}

// NewCollector returns a collector; maxReplicas is Max(R), normally the
// processor count.
func NewCollector(maxReplicas float64) *Collector {
	if maxReplicas < 0 {
		panic(fmt.Sprintf("metrics: negative max replicas %v", maxReplicas))
	}
	return &Collector{maxReplicas: maxReplicas}
}

// ObservePeriodStart records the utilization and replica state sampled at
// one period boundary.
func (c *Collector) ObservePeriodStart(cpuUtil, netUtil, meanReplicas float64) {
	c.periods++
	c.samples++
	c.cpuSum += cpuUtil
	c.netSum += netUtil
	c.replicaSum += meanReplicas
}

// ObserveCompletion records a finished instance.
func (c *Collector) ObserveCompletion(missed bool) {
	c.completed++
	if missed {
		c.missed++
	}
}

// CountReplications adds n replica additions.
func (c *Collector) CountReplications(n int) { c.replications += n }

// CountShutdown adds one replica removal.
func (c *Collector) CountShutdown() { c.shutdowns++ }

// CountAllocFailure records a Figure 5 FAILURE return.
func (c *Collector) CountAllocFailure() { c.failures++ }

// CountDropped adds n lost segment messages.
func (c *Collector) CountDropped(n int) { c.dropped += n }

// CountRetransmission records one handoff resend.
func (c *Collector) CountRetransmission() { c.retransmits++ }

// CountCrash records a node-down transition.
func (c *Collector) CountCrash() { c.crashes++ }

// CountRecovery records a node-up transition.
func (c *Collector) CountRecovery() { c.recoveries++ }

// CountShedItems adds n optional items dropped before launch.
func (c *Collector) CountShedItems(n int) { c.shedItems += n }

// CountStretchedPeriod records one period launch skipped by elastic
// period stretching.
func (c *Collector) CountStretchedPeriod() { c.stretchedPeriods++ }

// ObserveRecoveryLatency records one crash → first-met-deadline interval
// in milliseconds.
func (c *Collector) ObserveRecoveryLatency(ms float64) {
	c.recoverySum += ms
	c.recoveryObs++
}

// Absorb folds another collector's accumulated observations into c, as
// if every one of them had been made against c. Every accumulator is an
// order-insensitive sum or count (the means come out of Finish), so
// absorbing the per-lane collectors of a lane-partitioned run yields the
// same summary regardless of lane order. Max(R) becomes the larger of
// the two bounds: replication is lane-confined, so no task can exploit
// more concurrency than its own segment offers.
func (c *Collector) Absorb(o *Collector) {
	if o.maxReplicas > c.maxReplicas {
		c.maxReplicas = o.maxReplicas
	}
	c.periods += o.periods
	c.completed += o.completed
	c.missed += o.missed
	c.cpuSum += o.cpuSum
	c.netSum += o.netSum
	c.replicaSum += o.replicaSum
	c.samples += o.samples
	c.replications += o.replications
	c.shutdowns += o.shutdowns
	c.failures += o.failures
	c.dropped += o.dropped
	c.retransmits += o.retransmits
	c.crashes += o.crashes
	c.recoveries += o.recoveries
	c.recoverySum += o.recoverySum
	c.recoveryObs += o.recoveryObs
	c.shedItems += o.shedItems
	c.stretchedPeriods += o.stretchedPeriods
}

// Finish produces the run summary.
func (c *Collector) Finish() RunMetrics {
	// Completed > periods is normal in multi-task runs (see MissedPct):
	// clamp so lost-instance accounting can't go negative.
	unfinished := c.periods - c.completed
	if unfinished < 0 {
		unfinished = 0
	}
	m := RunMetrics{
		Periods:        c.periods,
		Completed:      c.completed,
		Missed:         c.missed,
		MaxReplicas:    c.maxReplicas,
		Replications:   c.replications,
		Shutdowns:      c.shutdowns,
		AllocFailures:  c.failures,
		UnfinishedWork: unfinished,

		DroppedMessages: c.dropped,
		Retransmissions: c.retransmits,
		Crashes:         c.crashes,
		Recoveries:      c.recoveries,

		ShedItems:        c.shedItems,
		StretchedPeriods: c.stretchedPeriods,
	}
	if c.recoveryObs > 0 {
		m.MeanRecoveryMS = c.recoverySum / float64(c.recoveryObs)
	}
	if c.samples > 0 {
		m.MeanCPUUtil = c.cpuSum / float64(c.samples)
		m.MeanNetUtil = c.netSum / float64(c.samples)
		m.MeanReplicas = c.replicaSum / float64(c.samples)
	}
	return m
}

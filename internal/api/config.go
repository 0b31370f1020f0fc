package api

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/monitor"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/sim"
)

// Config is the wire mirror of core.Config. Durations travel as
// nanosecond integers —
// exact, like the engine's own sim.Time — with _ns field suffixes.
// TestConfigMirrorsEveryCoreField walks every core.Config leaf to keep
// the mirror complete as the engine grows knobs.
type Config struct {
	NumNodes        int     `json:"num_nodes"`
	SliceNS         int64   `json:"slice_ns"`
	Discipline      string  `json:"discipline,omitempty"` // round-robin (default) | fifo | processor-sharing
	UtilThreshold   float64 `json:"util_threshold"`
	WarmupDemandNS  int64   `json:"warmup_demand_ns"`
	OverlapFraction float64 `json:"overlap_fraction"`
	Seed            uint64  `json:"seed"`
	// Lanes partitions the system into equal network segments simulated
	// on independent event lanes; Parallel is the worker count driving
	// them (results are byte-identical for every value). See core.Config.
	Lanes    int `json:"lanes,omitempty"`
	Parallel int `json:"parallel,omitempty"`

	Network NetworkConfig `json:"network"`
	Monitor MonitorConfig `json:"monitor"`

	ClockSync            bool    `json:"clock_sync,omitempty"`
	ClockDriftPPM        float64 `json:"clock_drift_ppm,omitempty"`
	ClockInitialOffsetNS int64   `json:"clock_initial_offset_ns,omitempty"`
	ClockSyncPeriodNS    int64   `json:"clock_sync_period_ns,omitempty"`

	Faults      []Fault           `json:"faults,omitempty"`
	Chaos       ChaosConfig       `json:"chaos,omitempty"`
	Degradation DegradationConfig `json:"degradation,omitempty"`

	// Policy, when non-nil, carries the allocation-policy knobs; absent
	// means the registered defaults (policy.Config zero value).
	Policy *PolicyConfig `json:"policy,omitempty"`
}

// NetworkConfig mirrors network.Config.
type NetworkConfig struct {
	BandwidthBps            int64   `json:"bandwidth_bps"`
	MTU                     int     `json:"mtu"`
	FrameOverheadBytes      int     `json:"frame_overhead_bytes"`
	PerMessageOverheadBytes int     `json:"per_message_overhead_bytes"`
	LocalDelayNS            int64   `json:"local_delay_ns"`
	DropProb                float64 `json:"drop_prob,omitempty"`
	JitterAmp               float64 `json:"jitter_amp,omitempty"`
	SpikeProb               float64 `json:"spike_prob,omitempty"`
	SpikeDelayNS            int64   `json:"spike_delay_ns,omitempty"`
	LossSeed                uint64  `json:"loss_seed,omitempty"`

	Partitions []Window `json:"partitions,omitempty"`
}

// Window mirrors network.Window: one transient whole-segment outage.
type Window struct {
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// MonitorConfig mirrors monitor.Config.
type MonitorConfig struct {
	SlackFraction     float64 `json:"slack_fraction"`
	HighSlackFraction float64 `json:"high_slack_fraction"`
	SmoothingWindow   int     `json:"smoothing_window,omitempty"`
	StalenessWindowNS int64   `json:"staleness_window_ns,omitempty"`
}

// Fault mirrors core.Fault: one scripted node crash.
type Fault struct {
	Node       int   `json:"node"`
	AtNS       int64 `json:"at_ns"`
	DurationNS int64 `json:"duration_ns,omitempty"`
}

// ChaosConfig mirrors chaos.Config.
type ChaosConfig struct {
	NodeMTBFNS      int64 `json:"node_mtbf_ns,omitempty"`
	NodeMTTRNS      int64 `json:"node_mttr_ns,omitempty"`
	MaxDown         int   `json:"max_down,omitempty"`
	PartitionMTBFNS int64 `json:"partition_mtbf_ns,omitempty"`
	PartitionMTTRNS int64 `json:"partition_mttr_ns,omitempty"`
}

// DegradationConfig mirrors core.Degradation.
type DegradationConfig struct {
	DeliveryTimeoutNS int64   `json:"delivery_timeout_ns,omitempty"`
	MaxRetries        int     `json:"max_retries,omitempty"`
	StalenessWindowNS int64   `json:"staleness_window_ns,omitempty"`
	CooldownPeriods   int     `json:"cooldown_periods,omitempty"`
	FallbackUtil      float64 `json:"fallback_util,omitempty"`
}

// PolicyConfig mirrors policy.Config flattened: the period-stretch and
// imprecise-shed knobs. Zero fields mean the policy package's defaults.
type PolicyConfig struct {
	StretchMaxFactor      float64 `json:"stretch_max_factor,omitempty"`
	StretchStep           float64 `json:"stretch_step,omitempty"`
	StretchUtilTarget     float64 `json:"stretch_util_target,omitempty"`
	ShedMandatoryFraction float64 `json:"shed_mandatory_fraction,omitempty"`
	ShedLevels            int     `json:"shed_levels,omitempty"`
}

// DefaultConfig returns the Table 1 baseline in wire form.
func DefaultConfig() Config { return ConfigFromCore(core.DefaultConfig()) }

// disciplineNames maps the wire strings; cpu.Discipline.String() emits
// the same forms, keeping the round trip exact.
var disciplineNames = map[string]cpu.Discipline{
	"":                  cpu.RoundRobin,
	"round-robin":       cpu.RoundRobin,
	"fifo":              cpu.FIFO,
	"processor-sharing": cpu.ProcessorSharing,
}

// ConfigFromCore converts an internal config to its wire form.
func ConfigFromCore(c core.Config) Config {
	out := Config{
		NumNodes:        c.NumNodes,
		SliceNS:         int64(c.Slice),
		UtilThreshold:   c.UtilThreshold,
		WarmupDemandNS:  int64(c.WarmupDemand),
		OverlapFraction: c.OverlapFraction,
		Seed:            c.Seed,
		Lanes:           c.Lanes,
		Parallel:        c.Parallel,

		ClockSync:            c.ClockSync,
		ClockDriftPPM:        c.ClockDriftPPM,
		ClockInitialOffsetNS: int64(c.ClockInitialOffset),
		ClockSyncPeriodNS:    int64(c.ClockSyncPeriod),

		Network: NetworkConfig{
			BandwidthBps:            c.Network.BandwidthBps,
			MTU:                     c.Network.MTU,
			FrameOverheadBytes:      c.Network.FrameOverheadBytes,
			PerMessageOverheadBytes: c.Network.PerMessageOverheadBytes,
			LocalDelayNS:            int64(c.Network.LocalDelay),
			DropProb:                c.Network.DropProb,
			JitterAmp:               c.Network.JitterAmp,
			SpikeProb:               c.Network.SpikeProb,
			SpikeDelayNS:            int64(c.Network.SpikeDelay),
			LossSeed:                c.Network.LossSeed,
		},
		Monitor: MonitorConfig{
			SlackFraction:     c.Monitor.SlackFraction,
			HighSlackFraction: c.Monitor.HighSlackFraction,
			SmoothingWindow:   c.Monitor.SmoothingWindow,
			StalenessWindowNS: int64(c.Monitor.StalenessWindow),
		},
		Chaos: ChaosConfig{
			NodeMTBFNS:      int64(c.Chaos.NodeMTBF),
			NodeMTTRNS:      int64(c.Chaos.NodeMTTR),
			MaxDown:         c.Chaos.MaxDown,
			PartitionMTBFNS: int64(c.Chaos.PartitionMTBF),
			PartitionMTTRNS: int64(c.Chaos.PartitionMTTR),
		},
		Degradation: DegradationConfig{
			DeliveryTimeoutNS: int64(c.Degradation.DeliveryTimeout),
			MaxRetries:        c.Degradation.MaxRetries,
			StalenessWindowNS: int64(c.Degradation.StalenessWindow),
			CooldownPeriods:   c.Degradation.CooldownPeriods,
			FallbackUtil:      c.Degradation.FallbackUtil,
		},
	}
	if c.Discipline != cpu.RoundRobin {
		out.Discipline = c.Discipline.String()
	}
	if c.Policy != (policy.Config{}) {
		out.Policy = &PolicyConfig{
			StretchMaxFactor:      c.Policy.Stretch.MaxFactor,
			StretchStep:           c.Policy.Stretch.Step,
			StretchUtilTarget:     c.Policy.Stretch.UtilTarget,
			ShedMandatoryFraction: c.Policy.Shed.MandatoryFraction,
			ShedLevels:            c.Policy.Shed.Levels,
		}
	}
	for _, w := range c.Network.Partitions {
		out.Network.Partitions = append(out.Network.Partitions, Window{StartNS: int64(w.Start), EndNS: int64(w.End)})
	}
	for _, f := range c.Faults {
		out.Faults = append(out.Faults, Fault{Node: f.Node, AtNS: int64(f.At), DurationNS: int64(f.Duration)})
	}
	return out
}

// ToCore converts the wire config back to the internal struct and
// validates it with core's aggregated Validate, so an API caller sees
// every invalid field at once.
func (c Config) ToCore() (core.Config, error) {
	disc, ok := disciplineNames[c.Discipline]
	if !ok {
		return core.Config{}, fmt.Errorf("api: unknown discipline %q (round-robin | fifo | processor-sharing)", c.Discipline)
	}
	out := core.Config{
		NumNodes:        c.NumNodes,
		Slice:           sim.Time(c.SliceNS),
		Discipline:      disc,
		UtilThreshold:   c.UtilThreshold,
		WarmupDemand:    sim.Time(c.WarmupDemandNS),
		OverlapFraction: c.OverlapFraction,
		Seed:            c.Seed,
		Lanes:           c.Lanes,
		Parallel:        c.Parallel,

		ClockSync:          c.ClockSync,
		ClockDriftPPM:      c.ClockDriftPPM,
		ClockInitialOffset: sim.Time(c.ClockInitialOffsetNS),
		ClockSyncPeriod:    sim.Time(c.ClockSyncPeriodNS),

		Network: network.Config{
			BandwidthBps:            c.Network.BandwidthBps,
			MTU:                     c.Network.MTU,
			FrameOverheadBytes:      c.Network.FrameOverheadBytes,
			PerMessageOverheadBytes: c.Network.PerMessageOverheadBytes,
			LocalDelay:              sim.Time(c.Network.LocalDelayNS),
			DropProb:                c.Network.DropProb,
			JitterAmp:               c.Network.JitterAmp,
			SpikeProb:               c.Network.SpikeProb,
			SpikeDelay:              sim.Time(c.Network.SpikeDelayNS),
			LossSeed:                c.Network.LossSeed,
		},
		Monitor: monitor.Config{
			SlackFraction:     c.Monitor.SlackFraction,
			HighSlackFraction: c.Monitor.HighSlackFraction,
			SmoothingWindow:   c.Monitor.SmoothingWindow,
			StalenessWindow:   sim.Time(c.Monitor.StalenessWindowNS),
		},
		Chaos: chaos.Config{
			NodeMTBF:      sim.Time(c.Chaos.NodeMTBFNS),
			NodeMTTR:      sim.Time(c.Chaos.NodeMTTRNS),
			MaxDown:       c.Chaos.MaxDown,
			PartitionMTBF: sim.Time(c.Chaos.PartitionMTBFNS),
			PartitionMTTR: sim.Time(c.Chaos.PartitionMTTRNS),
		},
		Degradation: core.Degradation{
			DeliveryTimeout: sim.Time(c.Degradation.DeliveryTimeoutNS),
			MaxRetries:      c.Degradation.MaxRetries,
			StalenessWindow: sim.Time(c.Degradation.StalenessWindowNS),
			CooldownPeriods: c.Degradation.CooldownPeriods,
			FallbackUtil:    c.Degradation.FallbackUtil,
		},
	}
	if c.Policy != nil {
		out.Policy = policy.Config{
			Stretch: policy.StretchConfig{
				MaxFactor:  c.Policy.StretchMaxFactor,
				Step:       c.Policy.StretchStep,
				UtilTarget: c.Policy.StretchUtilTarget,
			},
			Shed: policy.ShedConfig{
				MandatoryFraction: c.Policy.ShedMandatoryFraction,
				Levels:            c.Policy.ShedLevels,
			},
		}
	}
	for _, w := range c.Network.Partitions {
		out.Network.Partitions = append(out.Network.Partitions, network.Window{Start: sim.Time(w.StartNS), End: sim.Time(w.EndNS)})
	}
	for _, f := range c.Faults {
		out.Faults = append(out.Faults, core.Fault{Node: f.Node, At: sim.Time(f.AtNS), Duration: sim.Time(f.DurationNS)})
	}
	if err := out.Validate(); err != nil {
		return core.Config{}, err
	}
	return out, nil
}

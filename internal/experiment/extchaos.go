package experiment

import (
	"fmt"
	"hash/fnv"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	register(Experiment{ID: "ext-chaos", Paper: "§1 motivation (survivability in an asynchronous system)",
		Title: "Fault-intensity sweep: stochastic crashes × lossy network, hardened manager",
		Run:   runExtChaos})
}

// chaosIntensity is one cell of the MTBF × drop-rate grid.
type chaosIntensity struct {
	name  string
	chaos chaos.Config
	drop  float64
	// jitterAmp/spike model the latency tail that comes with a congested,
	// faulty LAN at the higher intensities.
	jitterAmp  float64
	spikeProb  float64
	spikeDelay sim.Time
}

// chaosIntensities is the fault grid: per-node MTBF shrinks while the
// drop rate grows, so "low → high" degrades both halves of the
// environment together.
func chaosIntensities() []chaosIntensity {
	return []chaosIntensity{
		{name: "low",
			chaos: chaos.Config{NodeMTBF: 120 * sim.Second, NodeMTTR: 8 * sim.Second, MaxDown: 2},
			drop:  0.005},
		{name: "medium",
			chaos:     chaos.Config{NodeMTBF: 60 * sim.Second, NodeMTTR: 8 * sim.Second, MaxDown: 2},
			drop:      0.02,
			jitterAmp: 0.5},
		{name: "high",
			chaos: chaos.Config{NodeMTBF: 30 * sim.Second, NodeMTTR: 6 * sim.Second, MaxDown: 3,
				PartitionMTBF: 45 * sim.Second, PartitionMTTR: 400 * sim.Millisecond},
			drop:      0.05,
			jitterAmp: 1.0,
			spikeProb: 0.01, spikeDelay: 2 * sim.Millisecond},
	}
}

// chaosSeed derives the deterministic seed for one (intensity, algorithm,
// replication) cell, FNV-hashed over the full cell identity so cells
// never alias (same construction as the sweep's non-headline seeds).
func chaosSeed(name string, alg core.Algorithm, rep int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "chaos|%s|%s|%d", name, alg, rep)
	return h.Sum64()
}

// chaosConfig builds the run configuration for one intensity cell: the
// stochastic fault processes, the lossy segment, and the hardened
// adaptation manager.
func chaosConfig(in chaosIntensity, seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Chaos = in.chaos
	cfg.Network.DropProb = in.drop
	cfg.Network.JitterAmp = in.jitterAmp
	cfg.Network.SpikeProb = in.spikeProb
	cfg.Network.SpikeDelay = in.spikeDelay
	cfg.Degradation = core.HardenedDegradation()
	return cfg
}

func runExtChaos(ctx Context) (Output, error) {
	const maxUnits = 16
	intensities := chaosIntensities()
	if ctx.Quick {
		intensities = intensities[:2]
	}
	seeds := ctx.seeds()
	setup, err := BenchmarkSetup(TriangularFactory(maxUnits * WorkloadUnit))
	if err != nil {
		return Output{}, err
	}

	ci := seeds > 1
	t := &Table{
		Title: fmt.Sprintf("ext-chaos — fault-intensity sweep (triangular %d units, hardened manager)", maxUnits),
		Notes: []string{
			"intensity couples per-node crash MTBF with message drop rate (low: 120s/0.5%, " +
				"medium: 60s/2% + jitter, high: 30s/5% + jitter + spikes + partitions)",
			"hardening: 100ms delivery timeout ×3 retries, 3s staleness window, " +
				"2-period shutdown cooldown, 0.5 fallback utilization",
			"recovery ms = mean crash → first met deadline",
		},
	}
	if ci {
		t.Columns = []string{"intensity", "algorithm",
			"MD%", "±95", "failovers", "±95", "drops", "±95",
			"retransmits", "±95", "recovery ms", "±95", "C", "±95"}
		t.Notes = append(t.Notes, ciNote(seeds))
	} else {
		t.Columns = []string{"intensity", "algorithm",
			"MD%", "failovers", "drops", "retransmits", "recovery ms", "C"}
	}
	var b batch
	for _, in := range intensities {
		for _, alg := range []core.Algorithm{core.Predictive, core.NonPredictive} {
			md, fo, dr := make([]float64, seeds), make([]float64, seeds), make([]float64, seeds)
			rx, rec, cm := make([]float64, seeds), make([]float64, seeds), make([]float64, seeds)
			for r := 0; r < seeds; r++ {
				b.add(chaosConfig(in, chaosSeed(in.name, alg, r)), alg, []core.TaskSetup{setup}, func(out RunOutcome) {
					m := out.Metrics
					md[r], fo[r], dr[r] = m.MissedPct(), float64(out.Failovers), float64(m.DroppedMessages)
					rx[r], rec[r], cm[r] = float64(m.Retransmissions), m.MeanRecoveryMS, m.Combined()
					if r < seeds-1 {
						return // the cell's row waits for its last replication
					}
					if !ci {
						t.AddRow(in.name, string(alg), md[0], fo[0], dr[0], rx[0], rec[0], cm[0])
						return
					}
					mdM, mdC := stats.MeanCI95(md)
					foM, foC := stats.MeanCI95(fo)
					drM, drC := stats.MeanCI95(dr)
					rxM, rxC := stats.MeanCI95(rx)
					recM, recC := stats.MeanCI95(rec)
					cmM, cmC := stats.MeanCI95(cm)
					t.AddRow(in.name, string(alg), mdM, mdC, foM, foC, drM, drC,
						rxM, rxC, recM, recC, cmM, cmC)
				})
			}
		}
	}
	return b.output(ctx, Output{ID: "ext-chaos", Tables: []*Table{t}})
}

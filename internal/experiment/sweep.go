package experiment

import (
	"context"
	"fmt"
	"hash/fnv"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/workload"
)

// MinWorkload is the fixed minimum of every sweep's workload interval
// (tracks); the paper's x-axes sweep the maximum in units of 500 tracks.
const MinWorkload = 500

// WorkloadUnit is the paper's x-axis scale: 1 unit = 500 tracks.
const WorkloadUnit = 500

// SweepPeriods is the run length per sweep point: two triangular cycles.
const SweepPeriods = 120

// PatternFactory builds the workload pattern for a sweep point's maximum
// workload in tracks.
type PatternFactory func(maxItems int) workload.Pattern

// TriangularFactory is Figure 9/10's pattern: two cycles per run.
func TriangularFactory(maxItems int) workload.Pattern {
	if maxItems <= MinWorkload {
		return workload.NewConstant(MinWorkload, SweepPeriods)
	}
	return workload.NewTriangular(MinWorkload, maxItems, SweepPeriods, 2)
}

// IncreasingFactory is Figure 11/13(a)'s pattern.
func IncreasingFactory(maxItems int) workload.Pattern {
	if maxItems <= MinWorkload {
		return workload.NewConstant(MinWorkload, SweepPeriods)
	}
	return workload.NewIncreasingRamp(MinWorkload, maxItems, SweepPeriods)
}

// DecreasingFactory is Figure 12/13(b)'s pattern.
func DecreasingFactory(maxItems int) workload.Pattern {
	if maxItems <= MinWorkload {
		return workload.NewConstant(MinWorkload, SweepPeriods)
	}
	return workload.NewDecreasingRamp(MinWorkload, maxItems, SweepPeriods)
}

// seed0Offset pins the replication-0 seed offsets of the two headline
// algorithms. The historical derivation added len(alg) to a Weyl-sequence
// step — fragile, since any two algorithms with same-length names would
// silently share seeds (predictive vs static-max already collide at 10).
// The offsets are now explicit constants, chosen equal to the historical
// name lengths so every committed golden CSV stays byte-identical.
var seed0Offset = map[core.Algorithm]uint64{
	core.Predictive:    10, // pinned: historical len("predictive")
	core.NonPredictive: 14, // pinned: historical len("non-predictive")
}

// runSeed derives the deterministic seed for one (point, algorithm,
// replication) sweep cell. Replication 0 of the headline algorithms keeps
// the pinned historical values; every other cell — extra replications,
// extension algorithms — uses a stable FNV-1a hash of the full cell
// identity, so no two cells can alias.
func runSeed(units int, alg core.Algorithm, rep int) uint64 {
	if rep == 0 {
		if off, ok := seed0Offset[alg]; ok {
			return 0x9e3779b9*uint64(units+1) + off
		}
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "sweep|%d|%s|%d", units, alg, rep)
	return h.Sum64()
}

// Sweep runs both algorithms at every max-workload point (in units of 500
// tracks) through the shared run scheduler, with Monte Carlo replication:
// every (point, algorithm) cell runs under `seeds` deterministic
// per-replication seeds (seeds < 1 means 1). All cells of all
// replications are flattened into the shared scheduler's global queue up
// front, so independent runs fill the worker pool, and the scheduler's
// run memo means a cell already requested by this or any other sweep or
// experiment — Figures 9 and 10 share one sweep, as do 11/13(a) and
// 12/13(b) — is simulated only once. Each point's Metrics is its
// replication-0 run; Reps lists every replication only when seeds > 1.
//
// When ctx is done the sweep unblocks with ctx.Err() and releases its
// stake in every cell it has not yet consumed, so cells nobody else wants
// are cancelled instead of simulating into the void. The daemon's sweep
// jobs run through here.
func Sweep(ctx context.Context, points []int, factory PatternFactory, parallelism, seeds int) ([]api.SweepPoint, error) {
	if seeds < 1 {
		seeds = 1
	}
	// One base setup for the whole sweep: the dynbench demand curves and
	// fitted models are pure, only the Pattern differs between points.
	base, err := BenchmarkSetup(nil)
	if err != nil {
		return nil, err
	}
	results := make([]api.SweepPoint, 0, 2*len(points))
	var b batch
	for _, u := range points {
		setup := base
		setup.Pattern = factory(u * WorkloadUnit)
		for _, a := range []core.Algorithm{core.Predictive, core.NonPredictive} {
			i := len(results)
			results = append(results, api.SweepPoint{MaxUnits: u, Algorithm: string(a)})
			if seeds > 1 {
				results[i].Reps = make([]api.Metrics, seeds)
			}
			for r := 0; r < seeds; r++ {
				cfg := core.DefaultConfig()
				cfg.Seed = runSeed(u, a, r)
				b.add(cfg, a, []core.TaskSetup{setup}, func(out api.RunResult) {
					p := &results[i]
					if r == 0 {
						p.Metrics = out.Metrics
					}
					if p.Reps != nil {
						p.Reps[r] = out.Metrics
					}
				})
			}
		}
	}
	if err := b.run(ctx, parallelism); err != nil {
		return nil, err
	}
	return results, nil
}

// byPoint reorganizes sweep results for table building.
func byPoint(results []api.SweepPoint) (points []int, pred, nonpred map[int]api.SweepPoint) {
	pred = make(map[int]api.SweepPoint)
	nonpred = make(map[int]api.SweepPoint)
	seen := make(map[int]bool)
	for _, r := range results {
		if !seen[r.MaxUnits] {
			seen[r.MaxUnits] = true
			points = append(points, r.MaxUnits)
		}
		if r.Algorithm == string(core.Predictive) {
			pred[r.MaxUnits] = r
		} else {
			nonpred[r.MaxUnits] = r
		}
	}
	return points, pred, nonpred
}

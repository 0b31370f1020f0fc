package experiment

import (
	"context"
	"fmt"
	"hash/fnv"

	"repro/internal/core"
	"repro/internal/metrics"
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

// PointResult is one sweep cell.
type PointResult struct {
	MaxUnits int // max workload in units of 500 tracks
	Alg      core.Algorithm
	// Metrics is the cell's replication-0 run — the pinned seed every
	// golden CSV was recorded under, and the whole result when seeds = 1.
	Metrics metrics.RunMetrics
	// Reps holds every replication's metrics, Reps[0] == Metrics. With
	// Monte Carlo replication (seeds > 1) figures aggregate these into
	// mean ± 95% CI.
	Reps []metrics.RunMetrics
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
// 12/13(b) — is simulated only once.
//
// When ctx is done the sweep unblocks with ctx.Err() and releases its
// stake in every cell it has not yet consumed, so cells nobody else wants
// are cancelled instead of simulating into the void. The daemon's sweep
// jobs run through here.
func Sweep(ctx context.Context, points []int, factory PatternFactory, parallelism, seeds int) ([]PointResult, error) {
	if seeds < 1 {
		seeds = 1
	}
	setParallelism(parallelism)
	// One base setup for the whole sweep: the dynbench demand curves and
	// fitted models are pure, only the Pattern differs between points.
	base, err := BenchmarkSetup(nil)
	if err != nil {
		return nil, err
	}
	algs := []core.Algorithm{core.Predictive, core.NonPredictive}
	type cell struct {
		units int
		alg   core.Algorithm
		reps  []*runEntry
	}
	cells := make([]cell, 0, len(points)*len(algs))
	var all []*runEntry // flattened submission order, for error-path release
	for _, u := range points {
		for _, a := range algs {
			c := cell{units: u, alg: a, reps: make([]*runEntry, seeds)}
			for r := 0; r < seeds; r++ {
				setup := base
				setup.Pattern = factory(u * WorkloadUnit)
				cfg := core.DefaultConfig()
				cfg.Seed = runSeed(u, a, r)
				c.reps[r] = sched.submit(cfg, a, []core.TaskSetup{setup})
				all = append(all, c.reps[r])
			}
			cells = append(cells, c)
		}
	}
	waited := 0
	results := make([]PointResult, len(cells))
	for i, c := range cells {
		pr := PointResult{MaxUnits: c.units, Alg: c.alg, Reps: make([]metrics.RunMetrics, seeds)}
		for r, e := range c.reps {
			out, err := e.waitCtx(ctx, sched)
			waited++ // this stake is settled either way: waitCtx abandoned it on ctx expiry, or the entry finished
			if err != nil {
				// Release the stake in every cell this sweep will never
				// consume, so cells nobody else wants stop running.
				for _, rest := range all[waited:] {
					sched.abandon(rest)
				}
				return nil, fmt.Errorf("experiment: point %d %s rep %d: %w", c.units, c.alg, r, err)
			}
			pr.Reps[r] = out.Metrics
		}
		pr.Metrics = pr.Reps[0]
		results[i] = pr
	}
	return results, nil
}

// byPoint reorganizes sweep results for table building.
func byPoint(results []PointResult) (points []int, pred, nonpred map[int]metrics.RunMetrics) {
	pts, p, np := byPointResult(results)
	pred = make(map[int]metrics.RunMetrics, len(p))
	nonpred = make(map[int]metrics.RunMetrics, len(np))
	for k, v := range p {
		pred[k] = v.Metrics
	}
	for k, v := range np {
		nonpred[k] = v.Metrics
	}
	return pts, pred, nonpred
}

// byPointResult is byPoint keeping the full PointResult (replications
// included) per cell, for CI-band rendering.
func byPointResult(results []PointResult) (points []int, pred, nonpred map[int]PointResult) {
	pred = make(map[int]PointResult)
	nonpred = make(map[int]PointResult)
	seen := make(map[int]bool)
	for _, r := range results {
		if !seen[r.MaxUnits] {
			seen[r.MaxUnits] = true
			points = append(points, r.MaxUnits)
		}
		if r.Alg == core.Predictive {
			pred[r.MaxUnits] = r
		} else {
			nonpred[r.MaxUnits] = r
		}
	}
	return points, pred, nonpred
}

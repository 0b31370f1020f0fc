package experiment

import (
	"context"
	"sync"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
)

// statsDelta runs f and returns how much each scheduler counter moved.
func statsDelta(f func()) api.SchedulerStats {
	before := SchedulerStats()
	f()
	after := SchedulerStats()
	return api.SchedulerStats{
		Requested:  after.Requested - before.Requested,
		Deduped:    after.Deduped - before.Deduped,
		MemoryHits: after.MemoryHits - before.MemoryHits,
		DiskHits:   after.DiskHits - before.DiskHits,
		Simulated:  after.Simulated - before.Simulated,
		Cancelled:  after.Cancelled - before.Cancelled,
		Remote:     after.Remote - before.Remote,
	}
}

// TestSchedulerSharesRunsAcrossExperiments drives three experiments with
// Monte Carlo replication concurrently through the shared scheduler (run
// under -race by the Makefile's race target). fig9 and fig10 each
// request the same triangular sweep and fig13 the two ramps, so with
// quick points (5), two algorithms and three replications the batch
// requests exactly 4 sweeps × 30 runs. Dedup happens per run: fig10's
// 30 cells are fig9's, and at workload 0 all three factories degenerate
// to the same constant pattern, so the ramp sweeps' 12 workload-0 cells
// (2 ramp sweeps × 2 algorithms × 3 seeds) are fingerprint-equal to the
// triangular sweep's. Each shared cell simulates only once.
func TestSchedulerSharesRunsAcrossExperiments(t *testing.T) {
	ResetSweepCache()
	ctx := Context{Quick: true, Parallelism: 4, Seeds: 3}
	d := statsDelta(func() {
		var wg sync.WaitGroup
		for _, id := range []string{"fig9", "fig10", "fig13"} {
			id := id
			wg.Add(1)
			go func() {
				defer wg.Done()
				e, err := ByID(id)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := e.Run(ctx); err != nil {
					t.Errorf("%s: %v", id, err)
				}
			}()
		}
		wg.Wait()
	})
	if want := uint64(120); d.Requested != want {
		t.Errorf("requested %d runs, want %d (4 sweeps × 5 points × 2 algorithms × 3 seeds)",
			d.Requested, want)
	}
	if want := uint64(78); d.Simulated != want {
		t.Errorf("simulated %d runs, want %d (120 requested − 30 fig10 cells − 12 shared workload-0 cells)",
			d.Simulated, want)
	}
	if shared := d.Deduped + d.MemoryHits; shared != 42 {
		t.Errorf("shared %d runs (%d in flight + %d memoized), want 42", shared, d.Deduped, d.MemoryHits)
	}
	if d.Requested != d.Simulated+d.Deduped+d.MemoryHits+d.DiskHits {
		t.Errorf("counters do not balance: %+v", d)
	}
}

// TestSchedulerDedupsOverlappingSweeps submits two sweeps whose point
// sets overlap; the shared cells must be served from the run memo, not
// re-simulated.
func TestSchedulerDedupsOverlappingSweeps(t *testing.T) {
	ResetSweepCache()
	first := statsDelta(func() {
		if _, err := Sweep(context.Background(), []int{0, 4, 8}, TriangularFactory, 2, 2); err != nil {
			t.Fatal(err)
		}
	})
	if first.Requested != 12 || first.Simulated != 12 {
		t.Fatalf("cold sweep: %+v, want 12 requested / 12 simulated", first)
	}
	second := statsDelta(func() {
		if _, err := Sweep(context.Background(), []int{4, 8, 12}, TriangularFactory, 2, 2); err != nil {
			t.Fatal(err)
		}
	})
	if second.Requested != 12 {
		t.Errorf("warm sweep requested %d, want 12", second.Requested)
	}
	if second.MemoryHits != 8 {
		t.Errorf("warm sweep memory hits = %d, want 8 (points 4 and 8 shared)", second.MemoryHits)
	}
	if second.Simulated != 4 {
		t.Errorf("warm sweep simulated %d, want 4 (point 12 only)", second.Simulated)
	}
}

// TestRunSeedPinsHistoricalValues guards the golden-CSV compatibility
// contract of the seed-derivation fix.
func TestRunSeedPinsHistoricalValues(t *testing.T) {
	for _, tc := range []struct {
		units int
		alg   core.Algorithm
		want  uint64
	}{
		{0, core.Predictive, 0x9e3779b9*1 + 10},
		{0, core.NonPredictive, 0x9e3779b9*1 + 14},
		{20, core.Predictive, 0x9e3779b9*21 + 10},
	} {
		if got := runSeed(tc.units, tc.alg, 0); got != tc.want {
			t.Errorf("runSeed(%d, %s, 0) = %d, want %d", tc.units, tc.alg, got, tc.want)
		}
	}
	// Non-headline algorithms and later replications must never collide
	// across the cells a sweep can produce.
	seen := map[uint64]string{}
	for units := 0; units <= 35; units++ {
		for _, alg := range []core.Algorithm{core.Predictive, core.NonPredictive, core.Greedy, core.StaticMax} {
			for rep := 0; rep < 10; rep++ {
				s := runSeed(units, alg, rep)
				id := string(alg)
				if prev, ok := seen[s]; ok {
					t.Fatalf("seed collision: %d shared by %s and %s/%d/%d", s, prev, id, units, rep)
				}
				seen[s] = id
			}
		}
	}
}

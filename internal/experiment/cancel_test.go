package experiment

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// longSetup builds a run that takes on the order of a second, so tests
// can reliably cancel it mid-flight.
func longSetup(t *testing.T) core.TaskSetup {
	t.Helper()
	values := make([]int, 100_000)
	for i := range values {
		values[i] = 9000
	}
	setup, err := BenchmarkSetup(workload.NewCustom("cancel-test", values))
	if err != nil {
		t.Fatal(err)
	}
	return setup
}

// TestScheduledRunCancellation: a cell cancels only when every
// waiter abandons it, the cancellation is never memoized, and the next
// identical request re-simulates cleanly.
func TestScheduledRunCancellation(t *testing.T) {
	setup := longSetup(t)
	cfg := core.DefaultConfig()
	cfg.Seed = 660001
	setups := []core.TaskSetup{setup}

	before := SchedulerStats()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	errs := make([]error, 2)
	d := statsDelta(func() {
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = ScheduledRun(ctx, cfg, core.Predictive, setups)
			}(i)
		}
		// Cancel only after both requests are registered with the
		// scheduler, so the second provably joins the first's cell.
		submitDeadline := time.Now().Add(30 * time.Second)
		for SchedulerStats().Requested < before.Requested+2 {
			if time.Now().After(submitDeadline) {
				t.Error("both submissions never registered")
				break
			}
			time.Sleep(time.Millisecond)
		}
		cancel()
		wg.Wait()
	})
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("waiter %d returned %v, want context.Canceled", i, err)
		}
	}
	if d.Requested != 2 || d.Deduped != 1 {
		t.Errorf("requested=%d deduped=%d, want 2 requests sharing one cell", d.Requested, d.Deduped)
	}

	// The worker observes the cancelled cell asynchronously; wait for the
	// counter, then prove the memo did not keep the dead entry.
	deadline := time.Now().Add(10 * time.Second)
	for SchedulerStats().Cancelled < before.Cancelled+1 {
		if time.Now().After(deadline) {
			t.Error("cancelled counter never moved")
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	d2 := statsDelta(func() {
		if _, err := ScheduledRun(context.Background(), cfg, core.Predictive, setups); err != nil {
			t.Fatalf("re-requesting a cancelled cell: %v", err)
		}
	})
	if d2.Simulated != 1 {
		t.Errorf("re-request simulated %d cells, want 1 (cancelled cells must not be memoized)", d2.Simulated)
	}
}

// TestBatchReleasesStakesOnError: a batch whose first cell fails returns
// that error without consuming the rest, and releases its stake in every
// later cell, so cells nobody else wants are cancelled instead of
// simulating for no one.
func TestBatchReleasesStakesOnError(t *testing.T) {
	defer SetSimHook(nil)
	const failSeed = 660101
	detErr := errors.New("deterministic first-cell failure")
	SetSimHook(func(cfg core.Config, alg core.Algorithm) error {
		if cfg.Seed == failSeed {
			return detErr
		}
		return nil
	})
	setups := []core.TaskSetup{longSetup(t)}
	var b batch
	for i := 0; i < 3; i++ {
		cfg := core.DefaultConfig()
		cfg.Seed = uint64(failSeed + i)
		b.add(cfg, core.Predictive, setups, func(RunOutcome) {
			t.Errorf("cell %d consumed after the batch failed", i)
		})
	}

	before := SchedulerStats()
	if err := b.run(context.Background(), 1); !errors.Is(err, detErr) {
		t.Fatalf("batch returned %v, want the first cell's error", err)
	}
	// The two unconsumed cells resolve asynchronously: one mid-run, one
	// still queued. Both must end cancelled, not simulated.
	deadline := time.Now().Add(10 * time.Second)
	for SchedulerStats().Cancelled < before.Cancelled+2 {
		if time.Now().After(deadline) {
			d := SchedulerStats()
			t.Fatalf("cancelled %d, simulated %d cells after the failure; want 2 cancelled",
				d.Cancelled-before.Cancelled, d.Simulated-before.Simulated-1)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

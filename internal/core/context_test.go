package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestRunContextCancellation: a run under a cancellable context stops
// promptly with the context's error instead of simulating to the end.
func TestRunContextCancellation(t *testing.T) {
	pattern := workload.NewConstant(9000, 200_000) // minutes of events if left alone
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := RunContext(ctx, DefaultConfig(), Predictive, []TaskSetup{benchSetup(pattern)}, nil)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled run returned %v, want context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("cancellation took %v; the engine checks every few thousand events", elapsed)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled run never returned")
	}
}

// TestRunContextPreCancelled: an already-dead context fails before any
// simulation work.
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, DefaultConfig(), Predictive, []TaskSetup{benchSetup(workload.NewConstant(500, 5))}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("got %v, want context.Canceled", err)
	}
}

// TestRunContextBackgroundMatchesRun: threading context.Background through
// RunContext must not perturb the simulation — Run and RunContext produce
// identical results (the golden CSVs depend on this).
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	pattern := workload.NewTriangular(500, 6000, 40, 2)
	cfg := DefaultConfig()
	cfg.Seed = 321
	a, err := Run(cfg, Predictive, []TaskSetup{benchSetup(pattern)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), cfg, Predictive, []TaskSetup{benchSetup(pattern)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics != b.Metrics || a.EventsFired != b.EventsFired {
		t.Errorf("RunContext(background) diverged from Run:\n got %+v events=%d\nwant %+v events=%d",
			b.Metrics, b.EventsFired, a.Metrics, a.EventsFired)
	}
	// A cancellable-but-never-cancelled context must also match: the
	// Step-loop drain path is observationally identical to eng.Run().
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c, err := RunContext(ctx, cfg, Predictive, []TaskSetup{benchSetup(pattern)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics != c.Metrics || a.EventsFired != c.EventsFired {
		t.Errorf("RunContext(cancellable) diverged from Run:\n got %+v events=%d\nwant %+v events=%d",
			c.Metrics, c.EventsFired, a.Metrics, a.EventsFired)
	}
}

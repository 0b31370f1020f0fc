package experiment

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/api"
)

// TestCachedSweepSingleFlight drives many concurrent identical Sweep callers
// through the shared scheduler and asserts every cell simulated exactly
// once, with every caller receiving equal results. Run under -race (the
// Makefile's race target covers this package) it also proves the run
// memo's locking is sound.
func TestCachedSweepSingleFlight(t *testing.T) {
	ResetSweepCache()
	const callers = 8
	results := make([][]api.SweepPoint, callers)
	errs := make([]error, callers)
	d := statsDelta(func() {
		var start, done sync.WaitGroup
		start.Add(1)
		for i := 0; i < callers; i++ {
			i := i
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait() // maximize contention on the first access
				results[i], errs[i] = Sweep(context.Background(), []int{0, 4}, TriangularFactory, 2, 1)
			}()
		}
		start.Done()
		done.Wait()
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if d.Simulated != 4 {
		t.Fatalf("simulated %d runs, want 4 (2 points × 2 algorithms, shared by %d callers)", d.Simulated, callers)
	}
	for i := 1; i < callers; i++ {
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("caller %d received different results", i)
		}
	}
}

package experiment

// Scheduler-side resilience coverage: worker panic isolation, the
// deterministic-vs-transient memoization split, and disk-cache write
// failures staying invisible to the job (all driven through the
// service-layer fault harness: the sim hook and the FS injector).

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/resil"
	"repro/internal/workload"
)

// faultSetup builds a cheap runnable setup for fault tests.
func faultSetup(t *testing.T) []core.TaskSetup {
	t.Helper()
	setup, err := BenchmarkSetup(nil)
	if err != nil {
		t.Fatal(err)
	}
	setup.Pattern = workload.NewConstant(500, 3)
	return []core.TaskSetup{setup}
}

func faultCfg(seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// TestWorkerPanicIsolated: a panicking simulation fails only its own
// cell — as a structured PanicError with the stack attached — and the
// worker pool keeps serving subsequent cells.
func TestWorkerPanicIsolated(t *testing.T) {
	defer SetSimHook(nil)
	SetSimHook(func(cfg core.Config, alg core.Algorithm) error {
		if cfg.Seed == 0xdead01 {
			panic("injected worker panic")
		}
		return nil
	})

	_, err := ScheduledRun(context.Background(), faultCfg(0xdead01), core.Predictive, faultSetup(t))
	p, ok := resil.IsPanic(err)
	if !ok {
		t.Fatalf("panicking cell returned %v, want a PanicError", err)
	}
	if p.Value != "injected worker panic" || len(p.Stack) == 0 {
		t.Errorf("panic error lost its value or stack: %+v", p)
	}
	if !strings.Contains(string(p.Stack), "simulate") {
		t.Errorf("captured stack does not show the worker's run path:\n%s", p.Stack)
	}

	// The pool is still alive: an untainted cell runs to completion.
	out, err := ScheduledRun(context.Background(), faultCfg(0xa11ce), core.Predictive, faultSetup(t))
	if err != nil {
		t.Fatalf("cell after the panic failed: %v", err)
	}
	if out.EventsFired == 0 {
		t.Error("post-panic cell produced no events")
	}
}

// TestDeterministicErrorsAreMemoized: a deterministic failure is never
// re-executed — a retry of the identical cell gets the memoized error
// without the hook firing again.
func TestDeterministicErrorsAreMemoized(t *testing.T) {
	defer SetSimHook(nil)
	calls := 0
	detErr := errors.New("deterministic model failure")
	SetSimHook(func(cfg core.Config, alg core.Algorithm) error {
		if cfg.Seed == 0xdead02 {
			calls++
			return detErr
		}
		return nil
	})

	cfg, setups := faultCfg(0xdead02), faultSetup(t)
	if _, err := ScheduledRun(context.Background(), cfg, core.Predictive, setups); !errors.Is(err, detErr) {
		t.Fatalf("first attempt: %v", err)
	}
	if _, err := ScheduledRun(context.Background(), cfg, core.Predictive, setups); !errors.Is(err, detErr) {
		t.Fatalf("second attempt: %v", err)
	}
	if calls != 1 {
		t.Errorf("deterministic failure executed %d times, want 1 (memoized)", calls)
	}
}

// TestTransientErrorsAreEvicted: a transiently failed cell leaves the
// memo, so the next identical request re-executes and can succeed.
func TestTransientErrorsAreEvicted(t *testing.T) {
	defer SetSimHook(nil)
	calls := 0
	SetSimHook(func(cfg core.Config, alg core.Algorithm) error {
		if cfg.Seed == 0xdead03 {
			calls++
			if calls == 1 {
				return resil.Transientf("queue race, attempt %d", calls)
			}
		}
		return nil
	})

	cfg, setups := faultCfg(0xdead03), faultSetup(t)
	_, err := ScheduledRun(context.Background(), cfg, core.Predictive, setups)
	if !resil.IsTransient(err) {
		t.Fatalf("first attempt: %v, want transient", err)
	}
	out, err := ScheduledRun(context.Background(), cfg, core.Predictive, setups)
	if err != nil {
		t.Fatalf("retry after transient failure: %v", err)
	}
	if calls != 2 {
		t.Errorf("hook fired %d times, want 2 (evicted, then re-executed)", calls)
	}
	if out.EventsFired == 0 {
		t.Error("retried cell produced no events")
	}
}

// TestCacheWriteFailureInvisibleToRun: with a cache whose writes fail,
// the run still completes with the correct result; the entry just never
// lands, so an identical later request (memo dropped) re-simulates.
func TestCacheWriteFailureInvisibleToRun(t *testing.T) {
	inj := resil.NewInjector(nil).Inject(resil.Rule{Op: resil.OpWrite, Err: fmt.Errorf("injected: cache disk full")})
	cache, err := OpenDiskCacheFS(t.TempDir(), inj)
	if err != nil {
		t.Fatal(err)
	}
	SetDiskCache(cache)
	defer SetDiskCache(nil)

	cfg, setups := faultCfg(0xdead04), faultSetup(t)
	before := SchedulerStats()
	out, err := ScheduledRun(context.Background(), cfg, core.Predictive, setups)
	if err != nil {
		t.Fatalf("run with failing cache writes: %v", err)
	}
	if cache.Len() != 0 {
		t.Errorf("cache holds %d entries though every write failed", cache.Len())
	}

	ResetSweepCache() // drop the in-process memo; disk would be next
	again, err := ScheduledRun(context.Background(), cfg, core.Predictive, setups)
	if err != nil {
		t.Fatal(err)
	}
	if again != out {
		t.Errorf("re-simulated result differs: %+v vs %+v", again, out)
	}
	delta := SchedulerStats()
	if sim := delta.Simulated - before.Simulated; sim != 2 {
		t.Errorf("simulated %d cells, want 2 (cache never hit)", sim)
	}
	if hits := delta.DiskHits - before.DiskHits; hits != 0 {
		t.Errorf("disk hits moved by %d with a write-dead cache", hits)
	}
}

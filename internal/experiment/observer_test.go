package experiment

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// recordObserver is a mutex-guarded WallObserver that tallies every
// callback, for asserting exactly which lifecycle events the scheduler
// emits per cell.
type recordObserver struct {
	mu       sync.Mutex
	queued   int
	started  int
	finished map[string]int // outcome kind -> count
	diskHits int
	negWait  bool // any negative wait/run duration observed
}

func newRecordObserver() *recordObserver {
	return &recordObserver{finished: make(map[string]int)}
}

func (r *recordObserver) CellQueued() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.queued++
}

func (r *recordObserver) CellStarted(wait time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.started++
	if wait < 0 {
		r.negWait = true
	}
}

func (r *recordObserver) CellFinished(outcome string, run time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.finished[outcome]++
	if run < 0 {
		r.negWait = true
	}
}

func (r *recordObserver) DiskHit(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.diskHits++
	if d < 0 {
		r.negWait = true
	}
}

// snapshot returns a copy of the counters safe to compare against.
func (r *recordObserver) snapshot() (queued, started, diskHits int, finished map[string]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	finished = make(map[string]int, len(r.finished))
	for k, v := range r.finished {
		finished[k] = v
	}
	return r.queued, r.started, r.diskHits, finished
}

// observerRunSetup builds one wire-expressible benchmark run with a seed
// namespaced away from every other test file's cells.
func observerRunSetup(t *testing.T, seed uint64) (core.Config, []core.TaskSetup) {
	t.Helper()
	setup, err := BenchmarkSetup(TriangularFactory(4 * WorkloadUnit))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = 0xb5_1000 + seed
	return cfg, []core.TaskSetup{setup}
}

// TestWallObserverCellLifecycle pins the observer contract for the
// simulate path: one fresh cell emits exactly queued → started →
// finished("simulated"), and a memory hit on the same cell emits
// nothing (the run never re-enters the queue).
func TestWallObserverCellLifecycle(t *testing.T) {
	ResetSweepCache()
	rec := newRecordObserver()
	SetWallObserver(rec)
	defer SetWallObserver(nil)

	cfg, setups := observerRunSetup(t, 1)
	if _, err := ScheduledRun(context.Background(), cfg, core.Predictive, setups); err != nil {
		t.Fatal(err)
	}
	queued, started, diskHits, finished := rec.snapshot()
	if queued != 1 || started != 1 || finished[cellSimulated] != 1 {
		t.Fatalf("fresh cell: queued=%d started=%d finished=%v, want 1/1/{simulated:1}",
			queued, started, finished)
	}
	if diskHits != 0 {
		t.Fatalf("fresh cell reported %d disk hits without a disk cache", diskHits)
	}

	// Memory hit: the memoized result is returned without re-queueing.
	if _, err := ScheduledRun(context.Background(), cfg, core.Predictive, setups); err != nil {
		t.Fatal(err)
	}
	queued, started, _, finished = rec.snapshot()
	if queued != 1 || started != 1 || finished[cellSimulated] != 1 {
		t.Fatalf("memory hit leaked observer events: queued=%d started=%d finished=%v",
			queued, started, finished)
	}
	if rec.negWait {
		t.Fatal("observer saw a negative wall-clock duration")
	}
}

// TestWallObserverDiskHit pins that a cell served from the persistent
// cache reports outcome "disk_hit" plus one DiskHit latency sample, and
// still walks the full queued → started → finished lifecycle.
func TestWallObserverDiskHit(t *testing.T) {
	cache, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	SetDiskCache(cache)
	defer SetDiskCache(nil)
	ResetSweepCache()

	rec := newRecordObserver()
	SetWallObserver(rec)
	defer SetWallObserver(nil)

	cfg, setups := observerRunSetup(t, 2)
	cold, err := ScheduledRun(context.Background(), cfg, core.Predictive, setups)
	if err != nil {
		t.Fatal(err)
	}

	ResetSweepCache() // forget the in-process memo; disk must serve the rerun
	warm, err := ScheduledRun(context.Background(), cfg, core.Predictive, setups)
	if err != nil {
		t.Fatal(err)
	}
	if warm != cold {
		t.Fatal("disk-served outcome differs from the simulated one")
	}

	queued, started, diskHits, finished := rec.snapshot()
	if queued != 2 || started != 2 {
		t.Fatalf("queued=%d started=%d, want 2/2 (cold + warm both enter the queue)", queued, started)
	}
	if finished[cellSimulated] != 1 || finished[cellDiskHit] != 1 {
		t.Fatalf("finished=%v, want {simulated:1, disk_hit:1}", finished)
	}
	if diskHits != 1 {
		t.Fatalf("DiskHit fired %d times, want 1", diskHits)
	}
}

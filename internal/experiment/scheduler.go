package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/resil"
	"repro/internal/trace"
)

// This file is the cross-experiment run scheduler. Every simulation any
// experiment requests — one (config, algorithm, task setup, seed) cell —
// is flattened into a single global work queue drained by one shared
// worker pool, instead of each sweep spinning up its own. Identical runs
// are deduplicated at run granularity with single-flight semantics: the
// first requester enqueues the cell, later requesters join it, and the
// finished outcome is memoized for the life of the process (and, when a
// DiskCache is installed, across processes).
//
// Every cell is also a cancellable job: requesters wait with a context,
// the cell executes under a private context that is cancelled only when
// ALL its requesters have abandoned it, and a cancelled cell is evicted
// from the memo so a later identical request re-runs it. That is what
// lets the rmserved daemon kill queued or running jobs without leaking
// worker goroutines.

// runEntry is one scheduled simulation: a single-flight cell of the
// global run table. Whoever creates the entry enqueues it exactly once;
// every later requester receives the same entry and blocks on done.
type runEntry struct {
	key    string
	cfg    core.Config
	alg    core.Algorithm
	setups []core.TaskSetup

	// runCtx governs the cell's execution; cancelRun fires when the last
	// waiter abandons the cell (see scheduler.abandon).
	runCtx    context.Context
	cancelRun context.CancelFunc

	// enqueuedAt is the wall-clock admission time; set only while a
	// WallObserver is installed (the zero value suppresses wait
	// reporting), so observability off means zero clock reads per run.
	enqueuedAt time.Time

	done     chan struct{}
	out      api.RunResult
	err      error
	finished bool // guarded by the scheduler mutex; set before done closes
	waiters  int  // guarded by the scheduler mutex; live requesters
}

// waitCtx blocks until the run completes or ctx is done; abandoning a
// cell releases this requester's stake in it (the cell is cancelled once
// nobody is left waiting).
func (e *runEntry) waitCtx(ctx context.Context, s *scheduler) (api.RunResult, error) {
	select {
	case <-e.done:
		return e.out, e.err
	case <-ctx.Done():
		s.abandon(e)
		return api.RunResult{}, ctx.Err()
	}
}

// RemoteRunner executes one wire-expressible run against a remote
// rmserved daemon (see SetRemoteRunner).
type RemoteRunner func(ctx context.Context, req api.RunRequest) (api.RunResult, error)

// WallObserver receives wall-clock timings of scheduler activity — the
// serving path's view of the queue, entirely outside simulated time.
// Implementations must be safe for concurrent use (workers call them in
// parallel) and cheap: they run on the worker's critical path.
// obs.Metrics satisfies this interface.
type WallObserver interface {
	// CellQueued fires when a new run cell is admitted to the queue.
	CellQueued()
	// CellStarted fires when a worker picks the cell up, with the time it
	// spent waiting in the queue.
	CellStarted(wait time.Duration)
	// CellFinished fires when the cell resolves, with how it resolved
	// ("simulated", "disk_hit", "remote", "cancelled", "error") and the
	// wall-clock execution time.
	CellFinished(outcome string, run time.Duration)
	// DiskHit fires for each persistent-cache read that returned an
	// outcome, with the read's wall-clock latency.
	DiskHit(d time.Duration)
}

type scheduler struct {
	mu       sync.Mutex
	queue    []*runEntry
	entries  map[string]*runEntry
	width    int // target worker-pool size; 0 = unset (NumCPU at first use)
	workers  int // live worker goroutines
	disk     *DiskCache
	remote   RemoteRunner
	observer WallObserver
	stats    api.SchedulerStats
}

// sched is the process-wide scheduler every experiment shares.
var sched = &scheduler{entries: make(map[string]*runEntry)}

// setParallelism sets the shared worker pool's target width; n ≤ 0 means
// NumCPU. The pool is global — concurrent callers share it and the most
// recent setting wins — which is safe because results never depend on the
// width (every run is independently seeded; the golden tests pin that),
// only throughput does.
func setParallelism(n int) {
	if n < 1 {
		n = runtime.NumCPU()
	}
	sched.mu.Lock()
	sched.width = n
	sched.mu.Unlock()
}

// SetDiskCache installs (or, with nil, removes) the persistent cache the
// scheduler consults before simulating and writes through after.
func SetDiskCache(c *DiskCache) {
	sched.mu.Lock()
	sched.disk = c
	sched.mu.Unlock()
}

// SetWallObserver installs (or, with nil, removes) the wall-clock
// observer the scheduler reports queue/run timings to. Like the disk
// cache and remote runner, it is process-global: the scheduler is one
// shared pool, so its observability is too.
func SetWallObserver(o WallObserver) {
	sched.mu.Lock()
	sched.observer = o
	sched.mu.Unlock()
}

// SetRemoteRunner installs (or, with nil, removes) a remote executor:
// runs whose (config, algorithm, setups) are expressible in the api wire
// schema are delegated to it instead of simulated locally — the
// rmexperiments -remote mode. Inexpressible runs still simulate locally.
func SetRemoteRunner(fn RemoteRunner) {
	sched.mu.Lock()
	sched.remote = fn
	sched.mu.Unlock()
}

// SchedulerStats snapshots the cumulative scheduler counters — the
// rmexperiments end-of-run summary and the daemon's /v1/stats read them,
// and tests assert dedup behaviour through before/after deltas.
func SchedulerStats() api.SchedulerStats {
	sched.mu.Lock()
	defer sched.mu.Unlock()
	return sched.stats
}

// ScheduledRun routes one simulation through the shared scheduler,
// blocking until its result is available. Identical runs — same config,
// algorithm and setups by content — execute once and share the outcome.
// When ctx is done the caller unblocks with ctx.Err(), and the underlying
// cell — shared with any identical concurrent request — is cancelled once
// every requester has abandoned it.
func ScheduledRun(ctx context.Context, cfg core.Config, alg core.Algorithm, setups []core.TaskSetup) (api.RunResult, error) {
	return sched.submit(cfg, alg, setups).waitCtx(ctx, sched)
}

// batch is one experiment's grid of runs. Cells are collected with add
// and resolved together by run, which hands every outcome to its cell's
// use callback in add order — so tables render the same rows whatever the
// pool width or completion order.
type batch []batchCell

type batchCell struct {
	cfg    core.Config
	alg    core.Algorithm
	setups []core.TaskSetup
	use    func(api.RunResult)
}

// add queues one run; use receives its outcome once run resolves it.
func (b *batch) add(cfg core.Config, alg core.Algorithm, setups []core.TaskSetup, use func(api.RunResult)) {
	*b = append(*b, batchCell{cfg, alg, setups, use})
}

// run sets the shared pool's width (parallelism ≤ 0 means NumCPU) and
// submits every cell before waiting on any, so the pool sees the whole
// grid at once. It then waits in add order. On the first error — a
// failed cell or ctx expiring — it releases its stake in every cell it
// has not yet consumed, so cells nobody else wants are cancelled instead
// of simulating into the void.
func (b batch) run(ctx context.Context, parallelism int) error {
	setParallelism(parallelism)
	entries := make([]*runEntry, len(b))
	for i, c := range b {
		entries[i] = sched.submit(c.cfg, c.alg, c.setups)
	}
	for i, c := range b {
		out, err := entries[i].waitCtx(ctx, sched)
		if err != nil {
			for _, rest := range entries[i+1:] {
				sched.abandon(rest)
			}
			return fmt.Errorf("experiment: %s run, seed %d: %w", c.alg, c.cfg.Seed, err)
		}
		c.use(out)
	}
	return nil
}

// output runs the batch for an experiment and returns out, whose tables
// the cells' use callbacks have filled by then.
func (b batch) output(ctx Context, out Output) (Output, error) {
	if err := b.run(context.Background(), ctx.Parallelism); err != nil {
		return Output{}, err
	}
	return out, nil
}

// submit registers one run and returns its entry without waiting, so
// callers can flatten a whole batch into the queue before blocking.
func (s *scheduler) submit(cfg core.Config, alg core.Algorithm, setups []core.TaskSetup) *runEntry {
	key := RunKey(cfg, alg, setups)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Requested++
	if e, ok := s.entries[key]; ok {
		if e.finished {
			s.stats.MemoryHits++
		} else {
			s.stats.Deduped++
			e.waiters++
		}
		return e
	}
	e := &runEntry{key: key, cfg: cfg, alg: alg, setups: setups, done: make(chan struct{}), waiters: 1}
	e.runCtx, e.cancelRun = context.WithCancel(context.Background())
	if s.observer != nil {
		e.enqueuedAt = time.Now()
		s.observer.CellQueued()
	}
	s.entries[key] = e
	s.queue = append(s.queue, e)
	if s.width == 0 {
		s.width = runtime.NumCPU()
	}
	if s.workers < s.width {
		s.workers++
		go s.worker()
	}
	return e
}

// abandon releases one requester's stake in a cell. The last live
// requester to leave cancels the cell's execution and evicts it from the
// memo, so a future identical request re-runs instead of joining a
// corpse.
func (s *scheduler) abandon(e *runEntry) {
	s.mu.Lock()
	e.waiters--
	cancel := e.waiters <= 0 && !e.finished
	if cancel && s.entries[e.key] == e {
		delete(s.entries, e.key)
	}
	s.mu.Unlock()
	if cancel {
		e.cancelRun()
	}
}

// worker drains the global queue FIFO. The pool is elastic: submit spawns
// workers on demand up to the target width, and a worker exits when the
// queue is empty or the target has shrunk below the live count, so idle
// workers cost nothing and serial mode (width 1) is truly serial.
func (s *scheduler) worker() {
	for {
		s.mu.Lock()
		if len(s.queue) == 0 || s.workers > s.width {
			s.workers--
			s.mu.Unlock()
			return
		}
		e := s.queue[0]
		s.queue = s.queue[1:]
		disk := s.disk
		remote := s.remote
		observer := s.observer
		s.mu.Unlock()
		s.execute(e, disk, remote, observer)
	}
}

// isCancel reports whether err is a context cancellation.
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Cell outcome kinds, as reported to the WallObserver and counted into
// the scheduler's stats by finish.
const (
	cellSimulated = "simulated"
	cellDiskHit   = "disk_hit"
	cellRemote    = "remote"
	cellCancelled = "cancelled"
	cellError     = "error"
)

// execute resolves one entry: cancellation first, persistent cache
// second, remote delegation third, local simulation last. observer, when
// non-nil, receives the cell's wall-clock wait and run timings.
func (s *scheduler) execute(e *runEntry, disk *DiskCache, remote RemoteRunner, observer WallObserver) {
	var started time.Time
	if observer != nil {
		started = time.Now()
		if !e.enqueuedAt.IsZero() {
			observer.CellStarted(started.Sub(e.enqueuedAt))
		}
	}
	if err := e.runCtx.Err(); err != nil {
		s.finish(e, api.RunResult{}, err, cellCancelled, observer, started)
		return
	}
	if disk != nil {
		out, ok := disk.Get(e.key)
		if ok {
			if observer != nil {
				observer.DiskHit(time.Since(started))
			}
			s.finish(e, out, nil, cellDiskHit, observer, started)
			return
		}
	}
	if remote != nil {
		if req, ok := EncodeRunRequest(e.cfg, e.alg, e.setups); ok {
			out, err := remote(e.runCtx, req)
			if isCancel(err) {
				s.finish(e, api.RunResult{}, err, cellCancelled, observer, started)
				return
			}
			if err == nil && disk != nil {
				_ = disk.Put(e.key, out)
			}
			s.finish(e, out, err, cellRemote, observer, started)
			return
		}
	}
	out, err := simulateRecovering(e.runCtx, e.cfg, e.alg, e.setups)
	if isCancel(err) {
		s.finish(e, api.RunResult{}, err, cellCancelled, observer, started)
		return
	}
	if err == nil && disk != nil {
		// Best effort: a failed write only costs a future re-simulation.
		_ = disk.Put(e.key, out)
	}
	s.finish(e, out, err, cellSimulated, observer, started)
}

// simulateRecovering is the worker pool's panic boundary: a panicking
// simulation becomes a structured job failure (stack attached) instead
// of killing the process, and the worker goroutine — having recovered —
// simply continues its drain loop, which is what "replacing" the worker
// amounts to in an elastic pool.
func simulateRecovering(ctx context.Context, cfg core.Config, alg core.Algorithm, setups []core.TaskSetup) (out api.RunResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = api.RunResult{}, resil.NewPanicError(r)
		}
	}()
	return simulate(ctx, cfg, alg, setups)
}

func (s *scheduler) finish(e *runEntry, out api.RunResult, err error, kind string, observer WallObserver, started time.Time) {
	s.mu.Lock()
	e.out, e.err = out, err
	e.finished = true
	if (isCancel(err) || resil.IsTransient(err)) && s.entries[e.key] == e {
		// Never memoize a cancellation or a transient failure: the next
		// identical request must re-execute — a dead waiter's context
		// error and an I/O flake are both properties of one attempt, not
		// of the cell. Deterministic errors stay memoized: the same
		// config and seed would fail identically, so a retry is waste.
		delete(s.entries, e.key)
	}
	switch kind {
	case cellCancelled:
		s.stats.Cancelled++
	case cellDiskHit:
		s.stats.DiskHits++
	case cellRemote:
		s.stats.Remote++
	default:
		s.stats.Simulated++
	}
	s.mu.Unlock()
	if observer != nil {
		// The observer sees failures as their own outcome; the counters
		// keep attributing them to the path that produced them.
		if err != nil && !isCancel(err) {
			kind = cellError
		}
		observer.CellFinished(kind, time.Since(started))
	}
	close(e.done)
}

// simHook, when non-nil, fires before each local simulation with the
// cell's config and algorithm. It is the service-layer fault harness's
// seam into the run path: tests inject transient errors (to exercise
// retry/backoff), deterministic errors (to prove they are never
// retried), and panics (to exercise worker isolation) without touching
// the engine. A non-nil error aborts the cell with that error; a panic
// propagates to the worker's recovery boundary like any engine panic.
var (
	simHookMu sync.Mutex
	simHook   func(cfg core.Config, alg core.Algorithm) error
)

// SetSimHook installs (or, with nil, removes) the fault-injection hook.
// Test-only: production binaries never set it.
func SetSimHook(fn func(cfg core.Config, alg core.Algorithm) error) {
	simHookMu.Lock()
	simHook = fn
	simHookMu.Unlock()
}

// simulate is the single place experiment code executes core.Run.
func simulate(ctx context.Context, cfg core.Config, alg core.Algorithm, setups []core.TaskSetup) (api.RunResult, error) {
	simHookMu.Lock()
	hook := simHook
	simHookMu.Unlock()
	if hook != nil {
		if err := hook(cfg, alg); err != nil {
			return api.RunResult{}, err
		}
	}
	res, err := core.RunContext(ctx, cfg, alg, setups, nil)
	if err != nil {
		return api.RunResult{}, err
	}
	out := api.RunResult{SchemaVersion: api.SchemaVersion, Metrics: res.Metrics, EventsFired: res.EventsFired}
	for _, ev := range res.Events {
		if ev.Kind == trace.ActionFailover {
			out.Failovers++
		}
	}
	return out, nil
}

// ResetSweepCache drops every memoized run in the shared scheduler;
// in-flight entries keep completing for their existing waiters. The
// persistent disk cache, if installed, is not touched — remove it with
// SetDiskCache(nil) to force re-simulation. Determinism audits
// (rmexperiments -check-determinism) call it so a repeated experiment
// re-executes its simulations instead of re-reading memoized results;
// results handed out before the reset remain valid and read-only.
func ResetSweepCache() {
	sched.mu.Lock()
	sched.entries = make(map[string]*runEntry)
	sched.mu.Unlock()
}

package server

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/resil"
	"repro/internal/telemetry"
)

// job is the server-side state of one submitted run or sweep. The wire
// view (api.Job) is a snapshot; subscribers receive a fresh snapshot on
// every state transition.
type job struct {
	id   string
	kind string // "run" | "sweep"

	run   api.RunRequest
	sweep api.SweepRequest
	// fingerprint is the run's content address (run jobs only), stamped
	// at submission so clients and the journal can correlate resubmitted
	// work across daemon restarts.
	fingerprint string

	mu       sync.Mutex
	state    string
	errMsg   string
	attempts int
	seq      uint64 // transition sequence, the SSE event id
	runRes   *api.RunResult
	sweepRes *api.SweepResult
	created  time.Time
	started  time.Time
	finished time.Time
	subs     map[chan jobEvent]struct{}

	cancel context.CancelFunc
	ctx    context.Context
	done   chan struct{}
}

// jobEvent is one SSE frame: the snapshot plus its monotonic sequence
// number, which the wire carries as the SSE id so clients can resume a
// dropped stream with Last-Event-ID.
type jobEvent struct {
	seq  uint64
	snap api.Job
}

// snapshot renders the wire view under the job's lock.
func (j *job) snapshot() api.Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

// current returns the snapshot together with its sequence number, read
// atomically (the SSE handler's dedup decision needs both).
func (j *job) current() (uint64, api.Job) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq, j.snapshotLocked()
}

func (j *job) snapshotLocked() api.Job {
	out := api.Job{
		SchemaVersion: api.SchemaVersion,
		ID:            j.id,
		Kind:          j.kind,
		State:         j.state,
		Error:         j.errMsg,
		Attempts:      j.attempts,
		Fingerprint:   j.fingerprint,
		CreatedMS:     j.created.UnixMilli(),
		Run:           j.runRes,
		Sweep:         j.sweepRes,
	}
	if !j.started.IsZero() {
		out.StartedMS = j.started.UnixMilli()
	}
	if !j.finished.IsZero() {
		out.FinishedMS = j.finished.UnixMilli()
	}
	return out
}

// transition moves the job to a new state and fans the snapshot out to
// every SSE subscriber. Terminal transitions close done and drop the
// subscriber set — late subscribers get one final snapshot and EOF.
func (j *job) transition(state string, mutate func(*job)) {
	j.mu.Lock()
	if api.TerminalState(j.state) {
		// A cancel racing a completion: first terminal state wins.
		j.mu.Unlock()
		return
	}
	j.state = state
	if mutate != nil {
		mutate(j)
	}
	j.seq++
	ev := jobEvent{seq: j.seq, snap: j.snapshotLocked()}
	subs := make([]chan jobEvent, 0, len(j.subs))
	for ch := range j.subs {
		subs = append(subs, ch)
	}
	terminal := api.TerminalState(state)
	j.mu.Unlock()

	for _, ch := range subs {
		// Subscriber channels are buffered; a stalled consumer loses
		// intermediate frames but always observes the terminal one via
		// the done channel below.
		select {
		case ch <- ev:
		default:
		}
	}
	if terminal {
		close(j.done)
	}
}

// subscribe registers an SSE consumer; the returned cancel must be
// called when the consumer leaves.
func (j *job) subscribe() (<-chan jobEvent, func()) {
	ch := make(chan jobEvent, 16)
	j.mu.Lock()
	if j.subs == nil {
		j.subs = make(map[chan jobEvent]struct{})
	}
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return ch, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

// execute drives the job to a terminal state, retrying transient
// failures with capped exponential backoff. It is called on a worker
// goroutine holding a concurrency slot.
func (s *Server) execute(j *job) {
	log := s.log.With(obs.ContextAttrs(j.ctx)...)
	for {
		var attempt int
		j.transition(api.JobRunning, func(j *job) {
			if j.started.IsZero() {
				j.started = s.now()
			}
			j.errMsg = ""
			j.attempts++
			attempt = j.attempts
		})
		s.journalMark(j, "start")
		log.Info("job running", "kind", j.kind, "attempt", attempt)

		start := s.now()
		err := s.runAttempt(j)
		s.observeRun(s.now().Sub(start))
		if err == nil {
			j.transition(api.JobDone, func(j *job) { j.finished = s.now() })
			s.journalMark(j, "finish")
			log.Info("job finished", "state", api.JobDone, "attempts", attempt)
			return
		}

		if p, ok := resil.IsPanic(err); ok {
			// The worker recovered; the daemon is intact and only this job
			// fails. The stack goes to the log — the wire error stays short.
			s.counter("rmserved_job_panics_total")
			log.Error("job worker panicked", "kind", j.kind, "panic", fmt.Sprint(p.Value), "stack", string(p.Stack))
		}
		if j.ctx.Err() != nil {
			j.transition(api.JobCancelled, func(j *job) {
				j.errMsg = err.Error()
				j.finished = s.now()
			})
			s.journalMark(j, "finish")
			log.Info("job finished", "state", api.JobCancelled, "error", err.Error())
			return
		}
		if resil.IsTransient(err) && attempt < s.opts.Retry.MaxAttempts() {
			delay := s.opts.Retry.Delay(attempt)
			s.counter("rmserved_job_retries_total", telemetry.Label{Key: "kind", Value: j.kind})
			j.transition(api.JobRetrying, func(j *job) { j.errMsg = err.Error() })
			log.Warn("job retrying", "attempt", attempt, "delay_ms", delay.Milliseconds(), "error", err.Error())
			if s.opts.Sleep(j.ctx, delay) == nil {
				continue
			}
			// Cancelled mid-backoff: resolve immediately rather than
			// burning a worker slot on an attempt doomed by a dead context.
			j.transition(api.JobCancelled, func(j *job) {
				j.errMsg = j.ctx.Err().Error()
				j.finished = s.now()
			})
			s.journalMark(j, "finish")
			log.Info("job finished", "state", api.JobCancelled)
			return
		}
		j.transition(api.JobFailed, func(j *job) {
			j.errMsg = err.Error()
			j.finished = s.now()
		})
		s.journalMark(j, "finish")
		log.Info("job finished", "state", api.JobFailed, "attempts", attempt, "error", err.Error())
		return
	}
}

// runAttempt executes the job's work once under the per-job deadline.
// On success the result is stored on the job and nil returned; the
// terminal transition stays with execute, so SSE subscribers never see
// a result on a non-terminal frame.
func (s *Server) runAttempt(j *job) error {
	ctx := j.ctx
	if s.opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.JobTimeout)
		defer cancel()
	}
	switch j.kind {
	case "run":
		cfg, alg, setups, merr := experiment.MaterializeRun(j.run)
		if merr != nil {
			// Validation passed at submission, so this is unreachable
			// short of a schema drift; fail the job rather than panic.
			return merr
		}
		res, err := experiment.ScheduledRun(ctx, cfg, alg, setups)
		if err != nil {
			return s.deadlineError(ctx, j, err)
		}
		j.mu.Lock()
		j.runRes = &res
		j.mu.Unlock()
		return nil
	case "sweep":
		factory, ferr := experiment.SweepFactory(j.sweep.Pattern)
		if ferr != nil {
			return ferr
		}
		points, err := experiment.Sweep(ctx, j.sweep.Points, factory, s.opts.Parallelism, j.sweep.Seeds)
		if err != nil {
			return s.deadlineError(ctx, j, err)
		}
		res := api.SweepResult{SchemaVersion: api.SchemaVersion, Points: points}
		j.mu.Lock()
		j.sweepRes = &res
		j.mu.Unlock()
		return nil
	default:
		return fmt.Errorf("server: unknown job kind %q", j.kind)
	}
}

// deadlineError distinguishes "the attempt's deadline expired" from
// "the job was cancelled": when the attempt context died but the job
// context is still live, the per-job timeout fired. Timeouts are
// deterministic for a given spec — re-running the same work against the
// same deadline loses the same race — so they fail the job, not retry.
func (s *Server) deadlineError(ctx context.Context, j *job, err error) error {
	if ctx.Err() != nil && j.ctx.Err() == nil {
		return fmt.Errorf("server: job exceeded -job-timeout %v: %w", s.opts.JobTimeout, err)
	}
	return err
}

// Package server implements rmserved: the long-lived HTTP daemon that
// turns the shared run scheduler (internal/experiment) into a
// multi-tenant simulation service. Jobs submitted as api wire specs flow
// through experiment.ScheduledRun / experiment.Sweep, so identical
// submissions dedup via single-flight and the content-addressed disk
// cache exactly as batch experiments do; the serving layer adds the
// production behaviors batch mode never needed — a bounded queue with
// 429 backpressure, per-job cancellation, SSE progress streams,
// request-scoped structured logging, and graceful drain.
//
// Endpoints (all under /v1, JSON in and out, errors in a uniform
// {"error":{code,message}} envelope):
//
//	POST   /v1/runs             submit one simulation        → api.Job
//	POST   /v1/sweeps           submit one figure sweep      → api.Job
//	GET    /v1/jobs             list jobs, newest last       → []api.Job
//	                            (?limit=/?after= pages       → api.JobPage)
//	GET    /v1/jobs/{id}        job status + result          → api.Job
//	DELETE /v1/jobs/{id}        cancel a queued/running job  → api.Job
//	GET    /v1/jobs/{id}/events SSE stream of job snapshots
//	GET    /v1/stats            scheduler + queue + telemetry → api.Stats
//	GET    /v1/metrics          Prometheus text exposition
//	GET    /v1/healthz          liveness (200 "ok", 503 when draining)
//
// Live simulation sessions (see internal/session) stream a running
// simulation's state as snapshot + diff SSE frames:
//
//	POST   /v1/sessions              start a live session    → api.Session
//	GET    /v1/sessions              list sessions           → []api.Session
//	GET    /v1/sessions/{id}         session status          → api.Session
//	GET    /v1/sessions/{id}/state   latest snapshot         → api.SessionState
//	POST   /v1/sessions/{id}/pause   gate the simulation     → api.Session
//	POST   /v1/sessions/{id}/resume  release the gate        → api.Session
//	DELETE /v1/sessions/{id}         stop the session        → api.Session
//	GET    /v1/sessions/{id}/stream  SSE snapshot/diff stream
//
// Plain operational endpoints (outside the versioned API, no JSON):
//
//	GET /healthz        liveness: 200 while the process serves at all
//	GET /readyz         readiness: 503 the instant drain begins
//	GET /debug/pprof/*  runtime profiling (only with Options.EnablePprof)
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/resil"
	"repro/internal/session"
	"repro/internal/telemetry"
)

// Options configures a Server. The zero value serves with NumCPU
// workers, a 64-deep queue, and no persistent cache.
type Options struct {
	// Workers bounds concurrently executing jobs; ≤0 means NumCPU.
	Workers int
	// QueueDepth bounds jobs waiting for a worker; submissions beyond it
	// are rejected with 429. ≤0 means 64.
	QueueDepth int
	// Parallelism is handed to the run scheduler per sweep (simulations
	// per sweep job); ≤0 means NumCPU.
	Parallelism int
	// CacheDir, when set, opens a persistent content-addressed run cache
	// and installs it on the shared scheduler. Unset with DataDir set, it
	// defaults to DataDir/cache so results survive restarts alongside the
	// journal.
	CacheDir string
	// DataDir, when set, enables the durable job journal: accepted jobs
	// are logged to DataDir/journal.wal before they are acknowledged, and
	// a restarting daemon replays the journal — re-enqueueing interrupted
	// work, restoring terminal failures — instead of forgetting it.
	DataDir string
	// JobTimeout bounds each execution attempt of a job; 0 means no
	// deadline. A timed-out attempt fails the job (deadlines lose the
	// same race on every retry).
	JobTimeout time.Duration
	// Retry shapes the backoff between attempts at a transiently failed
	// job. The zero value uses the resil defaults (3 attempts, 100ms base
	// doubling to a 5s cap, ±20% jitter).
	Retry resil.Backoff
	// Logger receives request- and job-scoped structured logs; nil means
	// slog.Default().
	Logger *slog.Logger
	// FS is the filesystem seam behind the journal and the run cache;
	// nil means the real one. Tests inject faults through it.
	FS resil.FS
	// Sleep paces retry backoff; nil means a real context-aware sleep.
	// Tests substitute a virtual sleeper.
	Sleep resil.Sleeper
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints expose heap contents and must be
	// opted into on a daemon that may face untrusted clients.
	EnablePprof bool
	// MaxSessions caps concurrently live simulation sessions (POST
	// /v1/sessions); ≤0 means the session package default (16). Sessions
	// bypass the job queue — each occupies its own goroutine for its
	// whole life, so this cap is their backpressure.
	MaxSessions int
	// Now overrides the wall clock (tests); nil means time.Now.
	Now func() time.Time
}

// Server is the rmserved daemon: an http.Handler plus the job table and
// worker pool behind it.
type Server struct {
	opts Options
	mux  *http.ServeMux
	log  *slog.Logger

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // submission order, for GET /v1/jobs
	queued int      // jobs admitted but not yet holding a worker slot

	slots    chan struct{} // worker-slot semaphore
	draining atomic.Bool
	inflight sync.WaitGroup // every admitted, unfinished job

	metrics  *obs.Metrics
	nextID   atomic.Uint64
	sessions *session.Manager

	journal *journal // nil unless Options.DataDir is set

	// avgRun is an EWMA of job execution time, feeding the Retry-After
	// estimate on 429/503 rejections.
	avgMu  sync.Mutex
	avgRun time.Duration
}

// New builds a Server and installs its routes. When opts.CacheDir is
// set the persistent cache is opened (and created) immediately so a
// misconfigured directory fails at startup, not at the first job.
func New(opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.NumCPU()
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.Sleep == nil {
		opts.Sleep = resil.SleepCtx
	}
	if opts.CacheDir == "" && opts.DataDir != "" {
		// Results must survive restarts for journal replay to serve
		// completed jobs from cache instead of re-simulating them.
		opts.CacheDir = filepath.Join(opts.DataDir, "cache")
	}
	s := &Server{
		opts:    opts,
		mux:     http.NewServeMux(),
		log:     opts.Logger,
		jobs:    make(map[string]*job),
		slots:   make(chan struct{}, opts.Workers),
		metrics: obs.NewMetrics(),
		sessions: session.NewManager(session.Config{
			MaxSessions: opts.MaxSessions,
			NowMS:       func() int64 { return opts.Now().UnixMilli() },
		}),
	}
	if opts.CacheDir != "" {
		cache, err := experiment.OpenDiskCacheFS(opts.CacheDir, opts.FS)
		if err != nil {
			return nil, err
		}
		cache.OnCorrupt = func(string) { s.metrics.Inc("obs_disk_cache_corrupt_total") }
		experiment.SetDiskCache(cache)
	}
	// The run scheduler is process-global, so its wall-clock observer is
	// too; the most recently constructed Server owns it (matching how
	// SetDiskCache already behaves for the cache).
	experiment.SetWallObserver(s.metrics)
	s.routes()
	if opts.DataDir != "" {
		if err := s.restoreJournal(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// restoreJournal opens (and replays) the durable job journal. Jobs that
// finished as failed or cancelled are restored as terminal records; all
// other journaled jobs — interrupted, queued, or done — are re-enqueued
// through the normal worker pool. Done jobs converge instantly: their
// fingerprint hits the persistent run cache, so the replayed result is
// byte-identical to the one computed before the crash.
func (s *Server) restoreJournal() error {
	jl, recs, err := openJournal(s.opts.DataDir, s.opts.FS)
	if err != nil {
		return err
	}
	s.journal = jl
	jobs, maxSeq := foldRecords(recs)
	s.nextID.Store(maxSeq)
	for _, rj := range jobs {
		if rj.kind != "run" && rj.kind != "sweep" {
			s.log.Warn("journal replay: skipping unknown job kind", "job", rj.id, "kind", rj.kind)
			continue
		}
		j := s.rebuildJob(rj)
		s.counter("rmserved_journal_replayed_total", telemetry.Label{Key: "state", Value: rj.state})
		if rj.state == api.JobFailed || rj.state == api.JobCancelled {
			// The failure is sticky: replaying it would turn one logical
			// job into two different answers across a restart.
			continue
		}
		s.log.Info("journal replay: re-enqueueing job", "job", j.id, "kind", j.kind, "journaled_state", rj.state)
		s.mu.Lock()
		s.queued++
		s.metrics.SetQueueDepth(s.queued)
		s.mu.Unlock()
		s.enqueue(j)
	}
	return nil
}

// rebuildJob reconstructs one journaled job. Terminal failures keep
// their journaled outcome and are registered directly; every other job
// comes back as a fresh queued shell (attempt count restarts — the wire
// Attempts field describes the current daemon's executions).
func (s *Server) rebuildJob(rj *replayedJob) *job {
	ctx, cancel := context.WithCancel(obs.WithJobID(context.Background(), rj.id))
	j := &job{
		id:          rj.id,
		kind:        rj.kind,
		run:         rj.run,
		sweep:       rj.sweep,
		fingerprint: rj.fingerprint,
		state:       api.JobQueued,
		created:     time.UnixMilli(rj.createdMS),
		ctx:         ctx,
		cancel:      cancel,
		done:        make(chan struct{}),
	}
	if rj.state == api.JobFailed || rj.state == api.JobCancelled {
		j.state = rj.state
		j.errMsg = rj.errMsg
		j.attempts = rj.attempts
		if rj.startedMS != 0 {
			j.started = time.UnixMilli(rj.startedMS)
		}
		if rj.finishedMS != 0 {
			j.finished = time.UnixMilli(rj.finishedMS)
		}
		close(j.done)
		s.mu.Lock()
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		s.mu.Unlock()
	}
	return j
}

func (s *Server) now() time.Time { return s.opts.Now() }

// Metrics exposes the server's wall-clock metric surface (tests, and
// embedding binaries that want to record their own serving metrics).
func (s *Server) Metrics() *obs.Metrics { return s.metrics }

// counter bumps a named server metric.
func (s *Server) counter(name string, labels ...telemetry.Label) {
	s.metrics.Inc(name, labels...)
}

func (s *Server) routes() {
	for route, h := range map[string]http.HandlerFunc{
		"POST /v1/runs":                 s.handleSubmitRun,
		"POST /v1/sweeps":               s.handleSubmitSweep,
		"GET /v1/jobs":                  s.handleListJobs,
		"GET /v1/jobs/{id}":             s.handleGetJob,
		"DELETE /v1/jobs/{id}":          s.handleCancelJob,
		"GET /v1/jobs/{id}/events":      s.handleJobEvents,
		"POST /v1/sessions":             s.handleCreateSession,
		"GET /v1/sessions":              s.handleListSessions,
		"GET /v1/sessions/{id}":         s.handleGetSession,
		"GET /v1/sessions/{id}/state":   s.handleSessionState,
		"POST /v1/sessions/{id}/pause":  s.handlePauseSession,
		"POST /v1/sessions/{id}/resume": s.handleResumeSession,
		"DELETE /v1/sessions/{id}":      s.handleStopSession,
		"GET /v1/sessions/{id}/stream":  s.handleSessionStream,
		"GET /v1/stats":                 s.handleStats,
		"GET /v1/metrics":               s.handleMetrics,
	} {
		s.mux.HandleFunc(route, s.logged(route, h))
	}
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /healthz", s.handleLiveness)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	if s.opts.EnablePprof {
		// pprof's index dispatches /debug/pprof/{heap,goroutine,...}
		// itself; symbol accepts POST, so these patterns carry no method.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// ServeHTTP makes the Server an http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// logged wraps a handler with request-scoped observability: every
// request gets a correlation ID (the client's X-Request-Id when it sent
// one, a fresh one otherwise) threaded through the request context and
// echoed on the response, completion is logged with status and duration,
// and the per-route latency histogram is fed. route is the mux pattern,
// so metric labels stay bounded no matter what path IDs clients use.
func (s *Server) logged(route string, h func(http.ResponseWriter, *http.Request)) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		start := s.now()
		rw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		id := r.Header.Get(obs.RequestIDHeader)
		if id == "" {
			id = obs.NewRequestID()
		}
		rw.Header().Set(obs.RequestIDHeader, id)
		r = r.WithContext(obs.WithRequestID(r.Context(), id))
		log := s.log.With("req", id, "method", r.Method, "path", r.URL.Path)
		log.Debug("request start")
		h(rw, r)
		dur := s.now().Sub(start)
		s.metrics.ObserveHTTP(route, rw.status, dur)
		log.Info("request done", "status", rw.status, "dur_ms", dur.Milliseconds())
	}
}

// statusWriter captures the response status for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so SSE streaming works through
// the logging wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// writeJSON emits one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError emits the uniform error envelope.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, api.ErrorEnvelope{Error: api.Error{Code: code, Message: fmt.Sprintf(format, args...)}})
}

// admit reserves a queue position for a new job, enforcing drain and
// backpressure. On success the caller owns one inflight stake.
func (s *Server) admit(w http.ResponseWriter) bool {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, api.CodeDraining, "server is draining; not accepting new jobs")
		s.counter("rmserved_rejected_total", telemetry.Label{Key: "reason", Value: "draining"})
		return false
	}
	s.mu.Lock()
	if s.queued >= s.opts.QueueDepth {
		s.mu.Unlock()
		w.Header().Set(api.RetryAfterHeader, strconv.Itoa(s.retryAfter()))
		writeError(w, http.StatusTooManyRequests, api.CodeQueueFull, "job queue full (%d waiting); retry later", s.opts.QueueDepth)
		s.counter("rmserved_rejected_total", telemetry.Label{Key: "reason", Value: "queue_full"})
		return false
	}
	s.queued++
	s.metrics.SetQueueDepth(s.queued)
	s.mu.Unlock()
	return true
}

// dequeued records one job leaving the waiting queue (for a worker slot
// or for cancellation).
func (s *Server) dequeued() {
	s.mu.Lock()
	s.queued--
	s.metrics.SetQueueDepth(s.queued)
	s.mu.Unlock()
}

// observeRun feeds one job execution duration into the EWMA behind the
// Retry-After estimate.
func (s *Server) observeRun(d time.Duration) {
	s.avgMu.Lock()
	if s.avgRun == 0 {
		s.avgRun = d
	} else {
		s.avgRun = (s.avgRun*4 + d) / 5
	}
	s.avgMu.Unlock()
}

// retryAfter renders the server's current backoff hint in seconds.
func (s *Server) retryAfter() int {
	s.avgMu.Lock()
	avg := s.avgRun
	s.avgMu.Unlock()
	s.mu.Lock()
	queued := s.queued
	s.mu.Unlock()
	return retryAfterSeconds(queued, s.opts.Workers, avg)
}

// retryAfterSeconds estimates how long until the queue has room again:
// the backlog's expected drain time at the observed per-job duration,
// spread across the worker pool, clamped to [1s, 60s]. With no duration
// signal yet, a flat 2s keeps clients from hammering a cold daemon.
func retryAfterSeconds(queued, workers int, avgRun time.Duration) int {
	if workers <= 0 {
		workers = 1
	}
	if avgRun <= 0 {
		return 2
	}
	wait := time.Duration(queued+1) * avgRun / time.Duration(workers)
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		return 1
	}
	if secs > 60 {
		return 60
	}
	return secs
}

// journalMark appends a start or finish record for j. Best effort by
// design: the submit record is the durability contract (the job exists),
// while a lost mark merely re-runs idempotent work after a crash.
func (s *Server) journalMark(j *job, typ string) {
	if s.journal == nil {
		return
	}
	snap := j.snapshot()
	rec := journalRecord{Type: typ, Job: j.id, MS: s.now().UnixMilli()}
	if typ == "finish" {
		rec.State = snap.State
		rec.Error = snap.Error
		rec.Attempts = snap.Attempts
	}
	if err := s.journal.append(rec); err != nil {
		s.counter("rmserved_journal_errors_total", telemetry.Label{Key: "type", Value: typ})
		s.log.Warn("journal append failed", "job", j.id, "type", typ, "error", err.Error())
	}
}

// journalSubmit durably records an accepted job before the client sees
// the acknowledgement. An error here must abort the submission: a job
// the journal does not know would vanish on restart despite having been
// acknowledged.
func (s *Server) journalSubmit(j *job) error {
	if s.journal == nil {
		return nil
	}
	rec := journalRecord{Type: "submit", Job: j.id, MS: s.now().UnixMilli(), Kind: j.kind, Fingerprint: j.fingerprint}
	switch j.kind {
	case "run":
		rec.Run = &j.run
	case "sweep":
		rec.Sweep = &j.sweep
	}
	return s.journal.append(rec)
}

// rejectJournal unwinds a submission whose journal write failed: the
// queue slot is released and the client told to retry once the disk
// recovers — resubmitting the identical spec is idempotent.
func (s *Server) rejectJournal(w http.ResponseWriter, j *job, err error) {
	s.dequeued()
	s.counter("rmserved_rejected_total", telemetry.Label{Key: "reason", Value: "journal"})
	s.counter("rmserved_journal_errors_total", telemetry.Label{Key: "type", Value: "submit"})
	s.log.Error("journal submit failed; rejecting job", "job", j.id, "error", err.Error())
	w.Header().Set(api.RetryAfterHeader, strconv.Itoa(s.retryAfter()))
	writeError(w, http.StatusServiceUnavailable, api.CodeJournal, "journal write failed; job not accepted, retry later: %v", err)
}

// enqueue registers the job and hands it to the worker pool.
func (s *Server) enqueue(j *job) {
	s.mu.Lock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
	s.counter("rmserved_jobs_submitted_total", telemetry.Label{Key: "kind", Value: j.kind})
	s.inflight.Add(1)
	s.metrics.AddInFlight(1)
	go func() {
		defer s.inflight.Done()
		defer s.metrics.AddInFlight(-1)
		// Hold a worker slot for the whole execution; cancellation while
		// queued skips the wait so a full pool cannot delay a DELETE.
		select {
		case s.slots <- struct{}{}:
		case <-j.ctx.Done():
			s.dequeued()
			j.transition(api.JobCancelled, func(j *job) {
				j.errMsg = j.ctx.Err().Error()
				j.finished = s.now()
			})
			s.counter("rmserved_jobs_finished_total", telemetry.Label{Key: "state", Value: api.JobCancelled})
			return
		}
		s.dequeued()
		defer func() { <-s.slots }()
		s.execute(j)
		s.counter("rmserved_jobs_finished_total", telemetry.Label{Key: "state", Value: j.snapshot().State})
	}()
}

// newJob allocates a job shell in the queued state. The job context
// carries both correlation IDs, so everything executed on the job's
// behalf — scheduler cells, remote delegation — can be tied back to the
// submission, and the accept log line links request to job.
func (s *Server) newJob(r *http.Request, kind string) *job {
	id := fmt.Sprintf("job-%d", s.nextID.Add(1))
	ctx := obs.WithJobID(context.Background(), id)
	if req := obs.RequestID(r.Context()); req != "" {
		ctx = obs.WithRequestID(ctx, req)
	}
	ctx, cancel := context.WithCancel(ctx)
	s.log.Info("job accepted", append(obs.ContextAttrs(ctx), "kind", kind)...)
	return &job{
		id:      id,
		kind:    kind,
		state:   api.JobQueued,
		created: s.now(),
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
	}
}

func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	var req api.RunRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "decoding run request: %v", err)
		return
	}
	// Validate the whole spec here — including materialization — so a bad
	// request fails synchronously with every field error, not as a failed
	// job minutes later.
	cfg, alg, setups, err := experiment.MaterializeRun(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}
	if !s.admit(w) {
		return
	}
	j := s.newJob(r, "run")
	j.run = req
	// The fingerprint computed here is the same content address the
	// scheduler dedups on, so a client resubmitting after a crash can
	// find this job (or its twin) by fingerprint.
	j.fingerprint = experiment.RunKey(cfg, alg, setups)
	if err := s.journalSubmit(j); err != nil {
		s.rejectJournal(w, j, err)
		return
	}
	s.enqueue(j)
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var req api.SweepRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "decoding sweep request: %v", err)
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}
	if !s.admit(w) {
		return
	}
	j := s.newJob(r, "sweep")
	j.sweep = req
	if err := s.journalSubmit(j); err != nil {
		s.rejectJournal(w, j, err)
		return
	}
	s.enqueue(j)
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

// lookup fetches a job by path id, writing the 404 envelope on miss.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, api.CodeNotFound, "unknown job %q", id)
	}
	return j
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	// ?fingerprint= narrows the list to jobs for one content-addressed
	// run — how a client rediscovers its work on a restarted daemon.
	q := r.URL.Query()
	fp := q.Get("fingerprint")
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]api.Job, 0, len(jobs))
	for _, j := range jobs {
		if fp != "" && j.fingerprint != fp {
			continue
		}
		out = append(out, j.snapshot())
	}
	// ?limit=/?after= switch the response to the paged JobPage shape; the
	// parameterless call keeps returning the bare array for one
	// deprecation window (DESIGN.md §6).
	if !q.Has("limit") && !q.Has("after") {
		writeJSON(w, http.StatusOK, out)
		return
	}
	page, err := pageJobs(out, q.Get("limit"), q.Get("after"))
	if err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, page)
}

// pageJobs slices the (already filtered) submission-ordered job list
// into one page: entries strictly after the `after` cursor, at most
// `limit` of them. NextAfter carries the cursor of the following page,
// empty when the page reaches the end.
func pageJobs(jobs []api.Job, limitStr, after string) (api.JobPage, error) {
	start := 0
	if after != "" {
		found := false
		for i, j := range jobs {
			if j.ID == after {
				start, found = i+1, true
				break
			}
		}
		if !found {
			return api.JobPage{}, fmt.Errorf("unknown after cursor %q", after)
		}
	}
	end := len(jobs)
	if limitStr != "" {
		limit, err := strconv.Atoi(limitStr)
		if err != nil || limit <= 0 {
			return api.JobPage{}, fmt.Errorf("limit must be a positive integer, got %q", limitStr)
		}
		if start+limit < end {
			end = start + limit
		}
	}
	page := api.JobPage{SchemaVersion: api.SchemaVersion, Jobs: jobs[start:end]}
	if page.Jobs == nil {
		page.Jobs = []api.Job{}
	}
	if end < len(jobs) && end > start {
		page.NextAfter = jobs[end-1].ID
	}
	return page, nil
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.snapshot())
	}
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	if api.TerminalState(j.snapshot().State) {
		writeError(w, http.StatusConflict, api.CodeConflict, "job %s already %s", j.id, j.snapshot().State)
		return
	}
	s.log.Info("job cancel requested", "job", j.id)
	j.cancel()
	// The queued-state fast path and the scheduler's context propagation
	// both resolve promptly; wait for the terminal transition so the
	// response carries the final state.
	<-j.done
	writeJSON(w, http.StatusOK, j.snapshot())
}

// handleJobEvents streams job snapshots as Server-Sent Events until the
// job reaches a terminal state or the client disconnects. Every stream
// opens with the current snapshot, so subscribing to a finished job
// yields exactly one frame.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, api.CodeInternal, "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	// Flush the headers now: a resumed stream may suppress its initial
	// frame, and a client blocked on response headers can't be said to
	// have reconnected.
	fl.Flush()

	// Last-Event-ID (the standard SSE resume header) carries the sequence
	// number of the last frame a reconnecting client saw; frames at or
	// below it are suppressed so a resumed stream never duplicates state.
	var lastID uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		lastID, _ = strconv.ParseUint(v, 10, 64)
	}

	events, unsub := j.subscribe()
	defer unsub()
	s.metrics.AddSSESubscribers(1)
	defer s.metrics.AddSSESubscribers(-1)

	// Frames go through the shared api.Event envelope. Job frames stay
	// UNNAMED (no `event:` line, bare Job payload) for one deprecation
	// window — pre-envelope clients parse only id:/data: lines, and an
	// `event: snapshot`-style name would be invisible to them but a
	// changed payload shape would not (DESIGN.md §6).
	emit := func(seq uint64, snap api.Job) bool {
		ev := api.Event{Type: api.EventJob, Seq: seq, Job: &snap}
		if err := ev.WriteSSE(w); err != nil {
			return false
		}
		fl.Flush()
		return !api.TerminalState(snap.State)
	}
	seq, snap := j.current()
	if seq > lastID || api.TerminalState(snap.State) {
		// Terminal frames re-emit even when already seen: a stream must
		// always end on one, and the duplicate is idempotent.
		if !emit(seq, snap) {
			return
		}
	}
	for {
		select {
		case ev := <-events:
			if !emit(ev.seq, ev.snap) {
				return
			}
		case <-j.done:
			// Drain any buffered frames, then emit the terminal snapshot.
			for {
				select {
				case ev := <-events:
					if !emit(ev.seq, ev.snap) {
						return
					}
				default:
					seq, snap := j.current()
					emit(seq, snap)
					return
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	stats := api.Stats{
		SchemaVersion: api.SchemaVersion,
		Scheduler:     experiment.SchedulerStatsToAPI(experiment.SchedulerStats()),
		QueueCapacity: s.opts.QueueDepth,
		Workers:       s.opts.Workers,
		Draining:      s.draining.Load(),
	}
	s.mu.Lock()
	stats.QueueDepth = s.queued
	for _, j := range s.jobs {
		switch j.snapshot().State {
		case api.JobQueued:
			stats.Jobs.Queued++
		case api.JobRunning, api.JobRetrying:
			// A retrying job still holds its worker slot; for capacity
			// accounting it is running.
			stats.Jobs.Running++
		case api.JobDone:
			stats.Jobs.Done++
		case api.JobFailed:
			stats.Jobs.Failed++
		case api.JobCancelled:
			stats.Jobs.Cancelled++
		}
	}
	s.mu.Unlock()
	sessStats := s.sessions.Stats()
	stats.Sessions = &sessStats
	stats.Telemetry = s.metrics.Values()
	writeJSON(w, http.StatusOK, stats)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.metrics.WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleLiveness answers /healthz: the process is alive and serving —
// true for as long as the listener exists, drain included (a draining
// daemon must NOT be restarted; it is finishing accepted work).
func (s *Server) handleLiveness(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

// handleReadyz answers /readyz: whether the daemon accepts new jobs. It
// flips to 503 the moment drain begins — before in-flight jobs finish —
// so load balancers stop routing submissions while results stay
// fetchable.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// Drain stops admissions and waits for every in-flight job to reach a
// terminal state, or for ctx to expire. Queued jobs still execute — a
// drain loses no accepted work — and status endpoints keep serving, so
// clients can collect results while the daemon winds down. Live
// sessions are the exception: a paced session could stream forever, so
// drain stops them (their streams end on a stopped terminal snapshot)
// rather than waiting them out.
func (s *Server) Drain(ctx context.Context) error {
	if s.draining.Swap(true) {
		return nil // already draining
	}
	s.log.Info("draining: admissions closed, stopping sessions, waiting for in-flight jobs")
	if err := s.sessions.DrainAndStop(ctx); err != nil {
		return fmt.Errorf("server: drain interrupted: %w", err)
	}
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.log.Info("drain complete")
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted: %w", ctx.Err())
	}
}

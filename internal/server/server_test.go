package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/experiment"
	"repro/internal/resil"
	"repro/internal/server"
)

// newTestServer starts an in-process daemon and a client against it.
func newTestServer(t *testing.T, opts server.Options) (*server.Server, *client.Client) {
	t.Helper()
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(testWriter{t}, &slog.HandlerOptions{Level: slog.LevelWarn}))
	}
	srv, err := server.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	cl := client.New(ts.URL, client.WithPollInterval(10*time.Millisecond))
	return srv, cl
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// runReq builds a cheap, fully wire-expressible run request: a custom
// workload replay, one simulated period per value.
func runReq(seed uint64, values []int) api.RunRequest {
	return api.RunRequest{
		SchemaVersion: api.SchemaVersion,
		Algorithm:     api.AlgPredictive,
		Seed:          &seed,
		Task: api.TaskSpec{
			Pattern: api.Pattern{Kind: api.PatternCustom, Label: "server-test", Values: values},
		},
	}
}

// longValues is a workload long enough (several seconds of wall time)
// that a job is reliably still running when the test cancels it.
func longValues() []int {
	v := make([]int, 500_000)
	for i := range v {
		v[i] = 9000
	}
	return v
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// waitForState polls until the job reaches the wanted state (or any
// terminal one).
func waitForState(t *testing.T, cl *client.Client, id, want string) api.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j, err := cl.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == want {
			return j
		}
		if api.TerminalState(j.State) {
			t.Fatalf("job %s reached terminal state %q (error %q) before %q", id, j.State, j.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q", id, want)
	return api.Job{}
}

// TestSubmitRunMatchesDirectScheduledRun is the acceptance criterion:
// a run submitted over the API must produce byte-for-byte the same
// result as calling experiment.ScheduledRun directly — even when the
// direct run re-simulates from scratch.
func TestSubmitRunMatchesDirectScheduledRun(t *testing.T) {
	_, cl := newTestServer(t, server.Options{})
	req := runReq(770001, []int{500, 2500, 4500, 2500, 500})

	j, err := cl.SubmitRun(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	j, err = cl.Wait(context.Background(), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != api.JobDone || j.Run == nil {
		t.Fatalf("job %s ended %q (error %q), want done with a run result", j.ID, j.State, j.Error)
	}

	// Recompute the same cell locally with a cold memo, so the comparison
	// is against a fresh simulation, not the daemon's memoized result.
	experiment.ResetSweepCache()
	cfg, alg, setups, err := experiment.MaterializeRun(req)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := experiment.ScheduledRun(context.Background(), cfg, alg, setups)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, *j.Run), mustJSON(t, direct); got != want {
		t.Errorf("API result differs from direct ScheduledRun:\n got %s\nwant %s", got, want)
	}
}

// TestDedupConcurrentIdenticalSubmissions: two clients racing the same
// spec cost one simulation, and /v1/stats shows the dedup.
func TestDedupConcurrentIdenticalSubmissions(t *testing.T) {
	_, cl := newTestServer(t, server.Options{})
	req := runReq(770002, []int{600, 3000, 6000, 3000, 600})

	before, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	results := make([]api.Job, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := cl.SubmitRun(context.Background(), req)
			if err == nil {
				j, err = cl.Wait(context.Background(), j.ID)
			}
			results[i], errs[i] = j, err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		if results[i].State != api.JobDone || results[i].Run == nil {
			t.Fatalf("submission %d ended %q (error %q)", i, results[i].State, results[i].Error)
		}
	}
	if a, b := mustJSON(t, *results[0].Run), mustJSON(t, *results[1].Run); a != b {
		t.Errorf("identical submissions returned different results:\n%s\n%s", a, b)
	}

	after, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sim := after.Scheduler.Simulated - before.Scheduler.Simulated
	shared := (after.Scheduler.Deduped - before.Scheduler.Deduped) +
		(after.Scheduler.MemoryHits - before.Scheduler.MemoryHits)
	if sim != 1 {
		t.Errorf("two identical submissions simulated %d cells, want exactly 1", sim)
	}
	if shared != 1 {
		t.Errorf("dedup not visible in /v1/stats: deduped+memory_hits moved by %d, want 1", shared)
	}
}

// TestCancelMidRun: DELETE on a running job cancels the underlying
// simulation and reports the cancelled terminal state.
func TestCancelMidRun(t *testing.T) {
	_, cl := newTestServer(t, server.Options{})
	before, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	j, err := cl.SubmitRun(context.Background(), runReq(770003, longValues()))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, cl, j.ID, api.JobRunning)

	start := time.Now()
	j, err = cl.Cancel(context.Background(), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != api.JobCancelled {
		t.Fatalf("after DELETE, job state %q, want %q", j.State, api.JobCancelled)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancellation took %v; the engine should notice within a few thousand events", elapsed)
	}

	// The scheduler counts the abandoned cell once its worker observes
	// the cancellation; allow a moment for the counter to settle.
	deadline := time.Now().Add(5 * time.Second)
	for {
		after, err := cl.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if after.Scheduler.Cancelled > before.Scheduler.Cancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Error("scheduler cancelled counter never moved after DELETE")
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Cancelling again is a conflict: the job is already terminal.
	if _, err := cl.Cancel(context.Background(), j.ID); err == nil {
		t.Error("second DELETE succeeded, want conflict")
	} else {
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.Code != api.CodeConflict {
			t.Errorf("second DELETE error %v, want code %q", err, api.CodeConflict)
		}
	}
}

// TestQueueFullReturns429: with one worker and a one-deep queue, a third
// submission is rejected with the queue_full envelope. It goes through a
// single-attempt client so the test sees the first 429 rather than the
// default client's Retry-After-paced retries (covered in internal/client).
func TestQueueFullReturns429(t *testing.T) {
	_, url, cl := newRawServer(t, server.Options{Workers: 1, QueueDepth: 1})
	ctx := context.Background()

	running, err := cl.SubmitRun(ctx, runReq(770004, longValues()))
	if err != nil {
		t.Fatal(err)
	}
	waitForState(t, cl, running.ID, api.JobRunning)

	queued, err := cl.SubmitRun(ctx, runReq(770005, longValues()))
	if err != nil {
		t.Fatal(err)
	}

	once := client.New(url, client.WithRetries(resil.Backoff{Attempts: 1}))
	_, err = once.SubmitRun(ctx, runReq(770006, longValues()))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 429 || apiErr.Code != api.CodeQueueFull {
		t.Fatalf("third submission error %v, want 429 %s", err, api.CodeQueueFull)
	}

	// Cancel the queued job first (it must cancel promptly without ever
	// holding a worker), then the running one.
	if j, err := cl.Cancel(ctx, queued.ID); err != nil || j.State != api.JobCancelled {
		t.Fatalf("cancelling queued job: state %q err %v", j.State, err)
	}
	if j, err := cl.Cancel(ctx, running.ID); err != nil || j.State != api.JobCancelled {
		t.Fatalf("cancelling running job: state %q err %v", j.State, err)
	}
}

// TestDrain: admissions close, in-flight jobs finish, and results stay
// fetchable after the drain completes.
func TestDrain(t *testing.T) {
	srv, cl := newTestServer(t, server.Options{})
	ctx := context.Background()

	j, err := cl.SubmitRun(ctx, runReq(770007, []int{700, 1400, 2100}))
	if err != nil {
		t.Fatal(err)
	}

	drainCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The accepted job finished during the drain, and its result is still
	// fetchable.
	got, err := cl.Job(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != api.JobDone || got.Run == nil {
		t.Errorf("after drain, job state %q (error %q), want done with a result", got.State, got.Error)
	}

	// New submissions are rejected with the draining envelope.
	_, err = cl.SubmitRun(ctx, runReq(770008, []int{500}))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 503 || apiErr.Code != api.CodeDraining {
		t.Errorf("submission during drain: %v, want 503 %s", err, api.CodeDraining)
	}

	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Draining {
		t.Error("/v1/stats does not report draining")
	}
}

// TestSSEEventSequence: the events stream yields queued/running frames
// in order and terminates with done.
func TestSSEEventSequence(t *testing.T) {
	_, cl := newTestServer(t, server.Options{})
	j, err := cl.SubmitRun(context.Background(), runReq(770009, []int{800, 1600, 2400, 1600}))
	if err != nil {
		t.Fatal(err)
	}
	var states []string
	last, err := cl.Events(context.Background(), j.ID, func(j api.Job) {
		states = append(states, j.State)
	})
	if err != nil {
		t.Fatal(err)
	}
	if last.State != api.JobDone || last.Run == nil {
		t.Fatalf("stream ended %q (error %q), want done with a result", last.State, last.Error)
	}
	rank := map[string]int{api.JobQueued: 0, api.JobRunning: 1, api.JobDone: 2}
	for i := 1; i < len(states); i++ {
		if rank[states[i]] < rank[states[i-1]] {
			t.Errorf("states regressed: %v", states)
			break
		}
	}
	if states[len(states)-1] != api.JobDone {
		t.Errorf("final frame %q, want done (all frames: %v)", states[len(states)-1], states)
	}
}

// TestSubmitValidationAggregates: a multiply-broken request fails
// synchronously with every field error in one envelope.
func TestSubmitValidationAggregates(t *testing.T) {
	_, cl := newTestServer(t, server.Options{})
	req := api.RunRequest{
		SchemaVersion: api.SchemaVersion,
		Algorithm:     "oracle",
		Task:          api.TaskSpec{Pattern: api.Pattern{Kind: "sawtooth"}, Models: "vibes"},
	}
	_, err := cl.SubmitRun(context.Background(), req)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 400 || apiErr.Code != api.CodeBadRequest {
		t.Fatalf("got %v, want 400 %s", err, api.CodeBadRequest)
	}
	for _, frag := range []string{"oracle", "sawtooth", "vibes"} {
		if !strings.Contains(apiErr.Message, frag) {
			t.Errorf("aggregated message should mention %q; got: %s", frag, apiErr.Message)
		}
	}
}

// TestJobNotFound: unknown ids get the 404 envelope.
func TestJobNotFound(t *testing.T) {
	_, cl := newTestServer(t, server.Options{})
	_, err := cl.Job(context.Background(), "job-999999")
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 404 || apiErr.Code != api.CodeNotFound {
		t.Fatalf("got %v, want 404 %s", err, api.CodeNotFound)
	}
}

// TestSweepJob: a sweep submitted over the API matches the direct
// experiment.Sweep result exactly.
func TestSweepJob(t *testing.T) {
	_, cl := newTestServer(t, server.Options{})
	req := api.SweepRequest{
		SchemaVersion: api.SchemaVersion,
		Pattern:       api.SweepTriangular,
		Points:        []int{1, 2},
	}
	j, err := cl.SubmitSweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	j, err = cl.Wait(context.Background(), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != api.JobDone || j.Sweep == nil {
		t.Fatalf("sweep ended %q (error %q)", j.State, j.Error)
	}
	direct, err := experiment.Sweep(context.Background(), req.Points, experiment.TriangularFactory, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, *j.Sweep), mustJSON(t, api.SweepResult{SchemaVersion: api.SchemaVersion, Points: direct}); got != want {
		t.Errorf("API sweep differs from direct Sweep:\n got %s\nwant %s", got, want)
	}
}

package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/resil"
	"repro/internal/server"
)

// The service workload's load, frozen so that every commit is measured
// at the same offered rates. The generator is open loop: request i of a
// phase is due at phase start + i/rate whatever the server does, and its
// latency runs from that due time to the observed terminal state.
const (
	// lightRate is well below capacity: it measures a lone job's path.
	lightRate = 50.0 // requests per second
	// heavyRate is about 20% of the ~700 jobs/s quiet-host capacity
	// measured at the commit that introduced this benchmark on a 2-vCPU
	// host, but the journal fsyncs three records per job under one lock,
	// and when the disk is shared that capacity falls several-fold;
	// README.md says why it is not 70%.
	heavyRate = 150.0
	// Each round offers lightJobs at lightRate, then heavyJobs at
	// heavyRate: half a second of light load, then a second of heavy.
	lightJobs = 25
	heavyJobs = 150
	// repeatEvery: one request in repeatEvery repeats an earlier request
	// of the run, which the scheduler memo answers without simulating.
	repeatEvery = 4
	// checkEvery: one fresh job in checkEvery is re-run locally after the
	// timed window and must match the served result.
	checkEvery = 8
	// goodputLimit is the latency a heavy-rate job must finish within to
	// count toward goodput_per_s. The offered rate fixes how many jobs a
	// round finishes, so goodput falls only when jobs back up past the
	// limit: it catches overload, and latency_ms catches slower jobs.
	goodputLimit = 100 * time.Millisecond
	// opTimeout fails a job or stream that has not ended, so a hung
	// server fails the run instead of outliving it.
	opTimeout = 30 * time.Second
)

// service is the service workload: an in-process rmserved in durable
// mode (fresh data directory per run) serving seed-drawn run requests of
// paper-sized demand over loopback HTTP, through at most nproc
// connections. Completion is observed by each job's SSE event stream on
// the same connections, so observation is pushed, not polled.
type service struct {
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	base   string
	hc     *http.Client
	cl     *client.Client
	rng    *rand.Rand
	fresh  []api.RunRequest // fresh requests so far, for repeats
	jobs   []*svcJob        // every job of the run, in offer order
	acc    [2]svcAcc
	ops    uint64
}

type svcAcc struct {
	heavy, light, late dist // ms from due time
	requested, simul   uint64
	rounds             int
	counts             api.Metrics // summed over fresh jobs
}

// svcJob is one offered request and what became of it.
type svcJob struct {
	req     api.RunRequest
	repeats int // index into fresh of the request it repeats; -1 when fresh
	fresh   int // index into fresh when fresh
	check   bool
	res     *api.RunResult
	err     error
}

func (s *service) setup(b *bench) error {
	id := b.tr.begin(0, -1, "setup.models")
	_, err := experiment.DefaultModels()
	b.tr.end(id)
	if err != nil {
		return err
	}
	id = b.tr.begin(0, -1, "setup.server")
	defer b.tr.end(id)
	s.srv, err = server.New(server.Options{
		DataDir: filepath.Join(b.workdir, "data"),
		Logger:  slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError})),
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed once close() shuts it
	}()
	s.hc = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     b.nproc,
		MaxIdleConnsPerHost: b.nproc,
		DisableCompression:  true,
	}}
	// One attempt per request: a refusal is a failed operation, not a
	// hidden retry that stretches the latency of the next request.
	s.cl = client.New(s.base, client.WithHTTPClient(s.hc), client.WithRetries(resil.Backoff{Attempts: 1}))
	resp, err := s.hc.Get(s.base + "/readyz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

func (s *service) prepare(b *bench) error {
	s.rng = rand.New(rand.NewSource(int64(b.seed)))
	return nil
}

// next draws the next request: a repeat of an earlier fresh request one
// time in repeatEvery, otherwise a fresh paper-sized run — a triangular
// demand of two cycles over 120 periods peaking at 1000–17500 tracks,
// under one of the paper's two algorithms and a drawn engine seed.
func (s *service) next() *svcJob {
	if len(s.fresh) > 0 && s.rng.Intn(repeatEvery) == 0 {
		i := s.rng.Intn(len(s.fresh))
		return &svcJob{req: s.fresh[i], repeats: i, fresh: -1}
	}
	seed := s.rng.Uint64()
	alg := api.AlgPredictive
	if s.rng.Intn(2) == 1 {
		alg = api.AlgNonPredictive
	}
	req := api.RunRequest{
		SchemaVersion: api.SchemaVersion,
		Algorithm:     alg,
		Seed:          &seed,
		Task: api.TaskSpec{Pattern: api.Pattern{
			Kind: api.PatternTriangular, Min: experiment.MinWorkload,
			Max: (2 + s.rng.Intn(34)) * experiment.MinWorkload, Periods: experiment.SweepPeriods, Cycles: 2,
		}},
	}
	s.fresh = append(s.fresh, req)
	return &svcJob{req: req, repeats: -1, fresh: len(s.fresh) - 1, check: s.rng.Intn(checkEvery) == 0}
}

func (s *service) round(b *bench, tr *tracer) (roundOut, error) {
	acc := &s.acc[0]
	if tr != nil {
		acc = &s.acc[1]
	}
	st0 := experiment.SchedulerStats()
	_, c0 := nowCPU()
	light, lightDone := s.phase(b, tr, acc, lightRate, lightJobs)
	h0 := time.Now()
	heavy, heavyDone := s.phase(b, tr, acc, heavyRate, heavyJobs)
	heavyWall := time.Since(h0)
	cpu := cpuTime() - c0
	st1 := experiment.SchedulerStats()
	acc.requested += st1.Requested - st0.Requested
	acc.simul += st1.Simulated - st0.Simulated
	acc.rounds++
	round := &dist{}
	good := 0
	for _, v := range heavy {
		round.add(v)
		acc.heavy.add(v)
		if v <= ms(goodputLimit) {
			good++
		}
	}
	for _, v := range light {
		acc.light.add(v)
	}
	p50, _ := round.pct(50)
	return roundOut{
		value:  p50,
		perS:   float64(good) / heavyWall.Seconds(),
		perCPU: float64(lightDone+heavyDone) / cpu.Seconds(),
		ops:    lightJobs + heavyJobs,
	}, nil
}

// phase offers n requests at rate and waits for every one to finish. It
// returns the latencies from due time, in ms, of the jobs that finished
// done — a failed or refused job has no latency and misses every limit —
// and how many did.
func (s *service) phase(b *bench, tr *tracer, acc *svcAcc, rate float64, n int) ([]float64, int) {
	jobs := make([]*svcJob, n)
	lat := make([]float64, n)
	for i := range jobs {
		jobs[i] = s.next()
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i, j := range jobs {
		due := dueAt(start, i, rate)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		acc.late.add(ms(time.Since(due)))
		s.ops++
		wg.Add(1)
		go func(i int, j *svcJob, op uint64) {
			defer wg.Done()
			j.res, j.err = s.do(tr, op, j.req)
			lat[i] = ms(time.Since(due))
		}(i, j, s.ops)
	}
	wg.Wait()
	var done []float64
	for i, j := range jobs {
		b.rep.op(j.err)
		if j.err == nil {
			done = append(done, lat[i])
			if j.repeats < 0 {
				m := j.res.Metrics
				acc.counts.Replications += m.Replications
				acc.counts.Shutdowns += m.Shutdowns
				acc.counts.AllocFailures += m.AllocFailures
			}
		}
	}
	s.jobs = append(s.jobs, jobs...)
	return done, len(done)
}

// dueAt is when request i of a phase offered at rate per second from
// start is due. Latency runs from this instant to the observed outcome,
// so a stalled generator or a full connection pool shows as latency on
// every request queued behind the stall instead of thinning the load.
func dueAt(start time.Time, i int, rate float64) time.Time {
	return start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
}

// do submits one run and follows its event stream to a terminal state.
func (s *service) do(tr *tracer, op uint64, req api.RunRequest) (*api.RunResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	root := tr.begin(op, -1, "service.job")
	defer tr.end(root)
	sp := tr.begin(op, root, "client.submit")
	j, err := s.cl.SubmitRun(ctx, req)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(op, root, "client.observe")
	final, err := s.cl.Events(ctx, j.ID, nil)
	tr.end(sp)
	switch {
	case err != nil:
		return nil, err
	case final.State != api.JobDone || final.Run == nil:
		return nil, fmt.Errorf("job %s ended %s: %s", j.ID, final.State, final.Error)
	}
	return final.Run, nil
}

// verify runs the output checks after the timed window: a repeated
// request must return the identical result, and the checked subset of
// fresh jobs must match a direct local run of the same request.
func (s *service) verify(rep *report) {
	byFresh := make([]*api.RunResult, len(s.fresh))
	for _, j := range s.jobs {
		if j.err == nil && j.repeats < 0 {
			byFresh[j.fresh] = j.res
		}
	}
	for _, j := range s.jobs {
		if j.err != nil {
			continue
		}
		if j.repeats >= 0 {
			if want := byFresh[j.repeats]; want != nil && !sameResult(*j.res, *want) {
				rep.checkFailed("service: a repeated request returned a result different from its first answer")
			}
			continue
		}
		if !j.check {
			continue
		}
		cfg, alg, setups, err := experiment.MaterializeRun(j.req)
		if err != nil {
			rep.checkFailed("service: materializing a served request locally: %v", err)
			continue
		}
		res, err := core.Run(cfg, alg, setups)
		if err != nil {
			rep.checkFailed("service: local reference run: %v", err)
			continue
		}
		want := api.RunResult{Metrics: api.MetricsFromRun(res.Metrics), EventsFired: res.EventsFired}
		if !sameResult(*j.res, want) {
			rep.checkFailed("service: served result differs from a direct local run (events %d vs %d)", j.res.EventsFired, res.EventsFired)
		}
	}
}

func sameResult(a, b api.RunResult) bool {
	return a.EventsFired == b.EventsFired && a.Metrics == b.Metrics
}

func (s *service) report(b *bench, rep *report) {
	s.verify(rep)
	a := &s.acc[0]
	n := a.heavy.n()
	p99, _ := a.heavy.pct(99)
	lp50, ln := a.light.pct(50)
	rep.name("job_p50_ms", "ms", rep.headline, n, fmt.Sprintf("heavy rate %.0f/s, from due time; median of %d round medians", heavyRate, rep.rounds))
	rep.name("job_p99_ms", "ms", p99, n, tailNote(99, n))
	rep.name("light_p50_ms", "ms", lp50, ln, fmt.Sprintf("light rate %.0f/s", lightRate))
	rep.name("goodput_per_s", "1/s", rep.e2e["work_per_s"], rep.rounds, fmt.Sprintf("heavy-rate jobs done within %v of their due time; median over rounds", goodputLimit))
	rep.notes = append(rep.notes, fmt.Sprintf("completion observed by push (per-job SSE stream over the same %d connections): observation cadence 0 ms", b.nproc))
	if !b.trace {
		return
	}
	a = &s.acc[1]
	sub := b.tr.durations("client.submit")
	rep.layers["server.submit_ms_p50"], _ = sub.pct(50)
	rep.layers["server.submit_ms_p99"], _ = sub.pct(99)
	rep.layers["server.observe_ms_p50"], _ = b.tr.durations("client.observe").pct(50)
	rep.layers["service.gen_late_ms_p99"], _ = a.late.pct(99)
	rep.layers["experiment.cells_requested"] = float64(a.requested) / float64(a.rounds)
	rep.layers["experiment.cells_simulated"] = float64(a.simul) / float64(a.rounds)
	rep.layers["experiment.dedup_ratio"] = dedupRatio(a.requested, a.simul)
	rep.layers["manager.replications"] = float64(a.counts.Replications) / float64(a.rounds)
	rep.layers["manager.shutdowns"] = float64(a.counts.Shutdowns) / float64(a.rounds)
	rep.layers["manager.alloc_failures"] = float64(a.counts.AllocFailures) / float64(a.rounds)
	scraped, err := s.scrape()
	if err != nil {
		rep.problem("scraping /v1/metrics: %v", err)
		return
	}
	rep.layers["server.cell_wait_ms_p99"] = 1000 * scraped.quantile("obs_sched_cell_wait_seconds", 0.99)
	rep.layers["experiment.cell_wait_ms_p99"] = rep.layers["server.cell_wait_ms_p99"]
	rep.layers["experiment.cell_run_ms_p50"] = 1000 * scraped.quantile(`obs_sched_cell_run_seconds{outcome="simulated"`, 0.5)
	rep.layers["server.rejected"] = scraped.sum("rmserved_rejected_total")
	rep.notes = append(rep.notes, "server.cell_wait_ms_p99, server.rejected and experiment.cell_*: scraped from /v1/metrics over the whole run (bucket upper bounds)")
}

// promScrape is a parsed Prometheus text exposition: series → value.
type promScrape map[string]float64

func (s *service) scrape() (promScrape, error) {
	resp, err := s.hc.Get(s.base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseProm(resp.Body)
}

func parseProm(r io.Reader) (promScrape, error) {
	out := promScrape{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of a metric, across labels.
func (p promScrape) sum(metric string) float64 {
	t := 0.0
	for k, v := range p {
		if k == metric || strings.HasPrefix(k, metric+"{") {
			t += v
		}
	}
	return t
}

// quantile estimates a histogram quantile as the upper bound of the
// first cumulative bucket holding q of the samples. prefix is the metric
// name, optionally followed by "{" and its leading labels.
func (p promScrape) quantile(prefix string, q float64) float64 {
	name, labels, _ := strings.Cut(prefix, "{")
	type bucket struct{ le, n float64 }
	var bs []bucket
	total := 0.0
	for k, v := range p {
		if !strings.HasPrefix(k, name+"_bucket{") || !strings.Contains(k, labels) {
			continue
		}
		_, le, ok := strings.Cut(k, `le="`)
		if !ok {
			continue
		}
		le = strings.TrimSuffix(strings.TrimSuffix(le, "}"), `"`)
		bound := math.Inf(1)
		if le != "+Inf" {
			var err error
			if bound, err = strconv.ParseFloat(le, 64); err != nil {
				continue
			}
		}
		bs = append(bs, bucket{bound, v})
		if math.IsInf(bound, 1) {
			total = v
		}
	}
	if total == 0 {
		return 0
	}
	best := math.Inf(1)
	for _, bk := range bs {
		if bk.n >= q*total && bk.le < best {
			best = bk.le
		}
	}
	return best
}

func (s *service) close() {
	if s.hs != nil {
		s.hs.Close()
		<-s.served
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.srv.Drain(ctx); err != nil && !errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "perfbench: draining server:", err)
		}
		s.hc.CloseIdleConnections()
	}
	experiment.SetWallObserver(nil)
	experiment.SetDiskCache(nil)
}

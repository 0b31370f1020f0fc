package experiment

import (
	"fmt"

	"repro/internal/api"
	"repro/internal/core"
)

// This file bridges the api wire schema and the experiment layer: the
// rmserved daemon materializes requests into runnable (config, algorithm,
// setups) triples here, and the rmexperiments -remote mode encodes local
// runs back onto the wire. Encoding is verified by fingerprint round
// trip — a run is only delegated remotely when the request, materialized
// exactly as the server will materialize it, content-addresses to the
// same cell — so a remote daemon can never silently compute a different
// simulation than the local scheduler would have.

// MaterializeRun turns a validated run request into the exact inputs
// ScheduledRun takes. This is the server's single entry point from the
// wire into the engine, and the reference semantics EncodeRunRequest
// verifies against.
func MaterializeRun(req api.RunRequest) (core.Config, core.Algorithm, []core.TaskSetup, error) {
	if err := req.Validate(); err != nil {
		return core.Config{}, "", nil, err
	}
	cfg := core.DefaultConfig()
	if req.Config != nil {
		var err error
		if cfg, err = req.Config.ToCore(); err != nil {
			return core.Config{}, "", nil, err
		}
	}
	if req.Seed != nil {
		cfg.Seed = *req.Seed
	}
	pattern, err := req.Task.Pattern.ToWorkload()
	if err != nil {
		return core.Config{}, "", nil, err
	}
	source := SourceProfiled
	if req.Task.Models != "" {
		source = ModelSource(req.Task.Models)
	}
	setup, err := SetupWithModels(pattern, source)
	if err != nil {
		return core.Config{}, "", nil, err
	}
	return cfg, core.Algorithm(req.Algorithm), []core.TaskSetup{setup}, nil
}

// SweepFactory resolves a wire sweep pattern name to the figure factory
// it names.
func SweepFactory(name string) (PatternFactory, error) {
	switch name {
	case api.SweepTriangular:
		return TriangularFactory, nil
	case api.SweepIncreasing:
		return IncreasingFactory, nil
	case api.SweepDecreasing:
		return DecreasingFactory, nil
	}
	return nil, fmt.Errorf("experiment: unknown sweep pattern %q", name)
}

// EncodeRunRequest expresses one local run in the wire schema, or
// reports ok=false when it cannot: multi-task runs, explicit home
// placements, patterns outside the schema, or models that match no wire
// model source. The candidate request is materialized through
// MaterializeRun and accepted only when it fingerprints to the same cell
// as the original — byte-equivalent semantics, verified, not assumed.
func EncodeRunRequest(cfg core.Config, alg core.Algorithm, setups []core.TaskSetup) (api.RunRequest, bool) {
	if len(setups) != 1 || setups[0].Homes != nil {
		return api.RunRequest{}, false
	}
	pattern, ok := api.PatternFromWorkload(setups[0].Pattern)
	if !ok {
		return api.RunRequest{}, false
	}
	wireCfg := api.ConfigFromCore(cfg)
	want := RunKey(cfg, alg, setups)
	for _, models := range []string{api.ModelsProfiled, api.ModelsPaper, api.ModelsGroundTruth} {
		req := api.RunRequest{
			SchemaVersion: api.SchemaVersion,
			Algorithm:     string(alg),
			Config:        &wireCfg,
			Task:          api.TaskSpec{Pattern: pattern, Models: models},
		}
		mcfg, malg, msetups, err := MaterializeRun(req)
		if err != nil {
			continue
		}
		if RunKey(mcfg, malg, msetups) == want {
			return req, true
		}
	}
	return api.RunRequest{}, false
}

// OutcomeToAPI converts a scheduler outcome to its wire form.
func OutcomeToAPI(out RunOutcome) api.RunResult {
	return api.RunResult{
		SchemaVersion: api.SchemaVersion,
		Metrics:       api.MetricsFromRun(out.Metrics),
		Failovers:     out.Failovers,
		EventsFired:   out.EventsFired,
	}
}

// OutcomeFromAPI converts a wire result back to a scheduler outcome.
func OutcomeFromAPI(r api.RunResult) RunOutcome {
	return RunOutcome{
		Metrics:     r.Metrics.ToRun(),
		Failovers:   r.Failovers,
		EventsFired: r.EventsFired,
	}
}

// SweepToAPI converts sweep results to their wire form. Single-seed
// sweeps omit the redundant Reps column.
func SweepToAPI(results []PointResult) api.SweepResult {
	out := api.SweepResult{SchemaVersion: api.SchemaVersion}
	for _, pr := range results {
		p := api.SweepPoint{MaxUnits: pr.MaxUnits, Algorithm: string(pr.Alg), Metrics: api.MetricsFromRun(pr.Metrics)}
		if len(pr.Reps) > 1 {
			p.Reps = make([]api.Metrics, len(pr.Reps))
			for i, m := range pr.Reps {
				p.Reps[i] = api.MetricsFromRun(m)
			}
		}
		out.Points = append(out.Points, p)
	}
	return out
}

// SchedulerStatsToAPI converts scheduler counters to their wire form.
func SchedulerStatsToAPI(c SchedulerCounters) api.SchedulerStats {
	return api.SchedulerStats{
		Requested:  c.Requested,
		Deduped:    c.Deduped,
		MemoryHits: c.MemoryHits,
		DiskHits:   c.DiskHits,
		Simulated:  c.Simulated,
		Cancelled:  c.Cancelled,
		Remote:     c.Remote,
	}
}

// Command rmexperiments regenerates every table and figure of the paper's
// evaluation (plus the extension experiments indexed in DESIGN.md §4).
//
// Usage:
//
//	rmexperiments                 # run everything, print to stdout
//	rmexperiments -run fig9       # run one experiment
//	rmexperiments -list           # list experiment ids
//	rmexperiments -out results/   # also write per-experiment .txt and .csv
//	rmexperiments -quick          # trimmed sweeps (smoke run)
//	rmexperiments -seeds 5        # Monte Carlo: 5 replications per sweep cell, tables gain ±95% CI columns
//	rmexperiments -cache-dir .rmcache  # persistent run cache: warm re-renders skip simulation
//	rmexperiments -remote http://host:8080  # delegate wire-expressible runs to an rmserved daemon
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/cliflag"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/resil"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list experiment ids and exit")
		run       = flag.String("run", "", "run a single experiment id (default: all)")
		out       = flag.String("out", "", "directory to write per-experiment .txt and .csv files")
		md        = flag.String("md", "", "write a single Markdown report to this file")
		quick     = flag.Bool("quick", false, "trimmed sweeps for a fast smoke run")
		parallel  = cliflag.Parallel(flag.CommandLine)
		seeds     = cliflag.Seeds(flag.CommandLine)
		cacheDir  = cliflag.CacheDir(flag.CommandLine)
		policies  = cliflag.Policies(flag.CommandLine)
		remote    = flag.String("remote", "", "rmserved base URL; wire-expressible runs are delegated to the daemon instead of simulated locally")
		checkDet  = flag.Bool("check-determinism", false, "run each experiment twice (serial, then parallel with a cold cache) and fail unless the outputs are byte-identical")
		logFormat = cliflag.LogFormat(flag.CommandLine)
	)
	flag.Parse()

	// Diagnostics go to the structured logger on stderr; stdout carries
	// only the rendered tables, figures, and the scheduler summary, so
	// piping results stays clean.
	log, err := obs.NewLogger(os.Stderr, *logFormat, slog.LevelInfo)
	if err != nil {
		fatal(err)
	}
	slog.SetDefault(log)

	if *remote != "" {
		cl := client.New(*remote)
		cl.Logger = log
		// One failed poll must not abort a whole sweep. The client already
		// retries individual requests; this outer loop handles the daemon
		// *losing* the job entirely (restart without -data-dir → 404 on
		// poll) or staying unreachable past the per-request budget, by
		// resubmitting the run with backoff — submissions are idempotent by
		// fingerprint, so the worst case is a cache hit on the daemon side.
		resubmit := resil.Backoff{Attempts: 4, Base: 500 * time.Millisecond, Max: 10 * time.Second}
		experiment.SetRemoteRunner(func(ctx context.Context, req api.RunRequest) (experiment.RunOutcome, error) {
			var out experiment.RunOutcome
			err := resil.Do(ctx, &resubmit, nil, func(attempt int) error {
				res, err := cl.RunSync(ctx, req)
				if err != nil {
					var ae *client.APIError
					lost := errors.As(err, &ae) && ae.Code == api.CodeNotFound
					if client.Retryable(err) || lost {
						log.Warn("remote run lost or daemon unreachable; resubmitting",
							"attempt", attempt, "error", err.Error())
						return resil.Transient(err)
					}
					return err
				}
				out = experiment.OutcomeFromAPI(res)
				return nil
			})
			return out, err
		})
		log.Info("remote mode: delegating wire-expressible runs", "daemon", *remote)
	}

	if *cacheDir != "" && !*checkDet {
		cache, err := experiment.OpenDiskCache(*cacheDir)
		if err != nil {
			fatal(err)
		}
		experiment.SetDiskCache(cache)
	}
	if *cacheDir != "" && *checkDet {
		// A determinism audit must re-execute every simulation; serving
		// runs from the persistent cache would compare the cache with
		// itself, so the cache is bypassed for the audit.
		log.Info("-check-determinism bypasses -cache-dir (the audit must re-simulate)")
	}

	if *list {
		for _, e := range experiment.All() {
			fmt.Printf("%-14s %-12s %s\n", e.ID, e.Paper, e.Title)
		}
		return
	}

	var todo []experiment.Experiment
	if *run != "" {
		e, err := experiment.ByID(*run)
		if err != nil {
			fatal(err)
		}
		todo = []experiment.Experiment{e}
	} else {
		todo = experiment.All()
	}

	if *checkDet {
		checkDeterminism(todo, *quick, *parallel)
		return
	}

	polSubset, err := cliflag.ParsePolicies(*policies)
	if err != nil {
		fatal(err)
	}
	ctx := experiment.Context{Parallelism: *parallel, Quick: *quick, Seeds: *seeds, Policies: polSubset}
	wallStart := time.Now()
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
	}
	var report strings.Builder
	if *md != "" {
		fmt.Fprintf(&report, "# Reproduction report\n\nGenerated %s by `rmexperiments`.\n\n",
			time.Now().UTC().Format("2006-01-02 15:04 UTC"))
	}
	for _, e := range todo {
		start := time.Now()
		output, err := e.Run(ctx)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		fmt.Printf("=== %s (%s) — %s [%v] ===\n\n", e.ID, e.Paper, e.Title, time.Since(start).Round(time.Millisecond))
		if err := output.Render(os.Stdout); err != nil {
			fatal(err)
		}
		if *out != "" {
			if err := writeFiles(*out, output); err != nil {
				fatal(err)
			}
		}
		if *md != "" {
			fmt.Fprintf(&report, "## %s — %s\n\n%s\n\n```text\n", e.ID, e.Paper, e.Title)
			if err := output.Render(&report); err != nil {
				fatal(err)
			}
			report.WriteString("```\n\n")
		}
	}
	if *md != "" {
		if err := os.WriteFile(*md, []byte(report.String()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("markdown report written to %s\n", *md)
	}
	s := experiment.SchedulerStats()
	fmt.Printf("scheduler: %d runs requested — %d deduped in flight, %d memory hits, %d disk hits, %d simulated",
		s.Requested, s.Deduped, s.MemoryHits, s.DiskHits, s.Simulated)
	if s.Remote > 0 {
		fmt.Printf(", %d remote", s.Remote)
	}
	if s.Cancelled > 0 {
		fmt.Printf(", %d cancelled", s.Cancelled)
	}
	fmt.Printf(" — wall-clock %v\n", time.Since(wallStart).Round(time.Millisecond))
}

// checkDeterminism renders every experiment twice — once with serial
// simulations, once with the full worker pool — resetting the sweep
// cache before each run so both actually execute. Any byte difference
// in the rendered tables, charts, or CSVs is a determinism regression
// (scheduling order leaking into results) and exits non-zero.
func checkDeterminism(todo []experiment.Experiment, quick bool, parallel int) {
	failed := false
	for _, e := range todo {
		start := time.Now()
		serial, err := fingerprint(e, experiment.Context{Parallelism: 1, Quick: quick})
		if err != nil {
			fatal(fmt.Errorf("%s (serial): %w", e.ID, err))
		}
		concurrent, err := fingerprint(e, experiment.Context{Parallelism: parallel, Quick: quick})
		if err != nil {
			fatal(fmt.Errorf("%s (parallel): %w", e.ID, err))
		}
		if serial == concurrent {
			fmt.Printf("ok   %-14s serial == parallel (%d bytes) [%v]\n",
				e.ID, len(serial), time.Since(start).Round(time.Millisecond))
		} else {
			failed = true
			fmt.Printf("FAIL %-14s serial and parallel outputs differ (%d vs %d bytes)\n",
				e.ID, len(serial), len(concurrent))
		}
	}
	if failed {
		os.Exit(1)
	}
}

// fingerprint runs one experiment against a cold run memo and returns
// its full rendered output plus every table's CSV.
func fingerprint(e experiment.Experiment, ctx experiment.Context) (string, error) {
	experiment.ResetSweepCache()
	out, err := e.Run(ctx)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	if err := out.Render(&b); err != nil {
		return "", err
	}
	for _, t := range out.Tables {
		if err := t.WriteCSV(&b); err != nil {
			return "", err
		}
	}
	return b.String(), nil
}

func writeFiles(dir string, o experiment.Output) error {
	var txt strings.Builder
	if err := o.Render(&txt); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, o.ID+".txt"), []byte(txt.String()), 0o644); err != nil {
		return err
	}
	for i, t := range o.Tables {
		name := o.ID
		if len(o.Tables) > 1 {
			name = fmt.Sprintf("%s-%d", o.ID, i+1)
		}
		var csv strings.Builder
		if err := t.WriteCSV(&csv); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name+".csv"), []byte(csv.String()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rmexperiments:", err)
	os.Exit(1)
}

// Command rmsim runs a single adaptive resource-management simulation and
// prints its metrics, adaptation events, and (optionally) the per-period
// trace as CSV.
//
// Usage:
//
//	rmsim -alg predictive -pattern triangular -max 12000 -periods 120
//	rmsim -alg non-predictive -pattern step -max 8000 -trace trace.csv
//	rmsim -alg predictive -telemetry out.json -chrome trace.json
//	rmsim -alg predictive -http :9090   # then browse /metrics, /snapshot.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/chaos"
	"repro/internal/cliflag"
	"repro/internal/core"
	"repro/internal/dynbench"
	"repro/internal/experiment"
	"repro/internal/export"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		algFlag  = cliflag.Alg(flag.CommandLine)
		pattern  = flag.String("pattern", "triangular", "workload: triangular | increasing | decreasing | step | burst | sinusoid | constant")
		wlFile   = flag.String("workload-file", "", "replay a recorded trace: one tracks-per-period integer per line ('#' comments allowed); overrides -pattern")
		min      = flag.Int("min", 500, "minimum workload (tracks per period)")
		max      = flag.Int("max", 12000, "maximum workload (tracks per period)")
		periods  = flag.Int("periods", 120, "number of periods to simulate")
		lanes    = flag.Int("lanes", 0, "partition the run into this many network segments (lanes): scales the cluster to lanes×6 nodes with one task copy per lane; < 2 = the classic single-segment run")
		parallel = flag.Int("parallel", 0, "lane workers: 0 = one per CPU, 1 = serial lane driver, N = worker pool (results are byte-identical for every value; needs -lanes ≥ 2)")
		seed     = cliflag.Seed(flag.CommandLine, 1)
		traceOut = flag.String("trace", "", "write the per-period trace CSV to this file")
		events   = flag.Bool("events", false, "print every adaptation event")
		jsonOut  = flag.String("json", "", "write the full run as JSON to this file ('-' for stdout)")
		telOut   = flag.String("telemetry", "", "write the telemetry snapshot JSON (latency/slack histograms, forecast MAPE) to this file ('-' for stdout)")
		chrome   = flag.String("chrome", "", "write a Chrome trace_event JSON (chrome://tracing, Perfetto) to this file")
		httpAddr = flag.String("http", "", "after the run, serve live telemetry on this address (/metrics, /snapshot.json, /trace.json) until interrupted")
		force    = flag.Bool("force", false, "overwrite existing output files")
		mtbf     = flag.Duration("mtbf", 0, "stochastic node crashes: mean time between failures per node (enables the hardened manager)")
		mttr     = flag.Duration("mttr", 8*time.Second, "mean time to repair for -mtbf crashes")
		drop     = flag.Float64("drop", 0, "per-message drop probability on the shared segment, 0 ≤ p < 1 (enables the hardened manager)")
		logFmt   = cliflag.LogFormat(flag.CommandLine)

		// Policy knobs (0 = the registered default; see internal/policy).
		stretchMax    = flag.Float64("stretch-max", 0, "period-stretch: elastic bound on the period multiplier (0 = default 2.0)")
		stretchStep   = flag.Float64("stretch-step", 0, "period-stretch: per-period stretch increment (0 = default 0.25)")
		stretchTarget = flag.Float64("stretch-target", 0, "period-stretch: utilization target of the elastic plan (0 = default 0.8)")
		shedMandatory = flag.Float64("shed-mandatory", 0, "imprecise-shed: mandatory fraction never shed (0 = default 0.5)")
		shedLevels    = flag.Int("shed-levels", 0, "imprecise-shed: optional-part shedding levels (0 = default 4)")
	)
	var fails faultList
	flag.Var(&fails, "fail", "inject a crash: node@at or node@at+duration, e.g. -fail 2@10.2s+15s (repeatable; omitted duration = permanent)")
	flag.Parse()

	// Simulation results print to stdout; diagnostics use the shared
	// structured logger on stderr like every other binary.
	logger, logErr := obs.NewLogger(os.Stderr, *logFmt, slog.LevelInfo)
	if logErr != nil {
		fatal(logErr)
	}
	slog.SetDefault(logger)

	alg := core.Algorithm(*algFlag)
	if !core.ValidAlgorithm(alg) {
		fatal(fmt.Errorf("unknown algorithm %q (registered: %s)", *algFlag, core.AlgorithmNames()))
	}
	var p workload.Pattern
	var err error
	if *wlFile != "" {
		f, err := os.Open(*wlFile)
		if err != nil {
			fatal(err)
		}
		values, perr := workload.ParseSeries(f)
		f.Close()
		if perr != nil {
			fatal(perr)
		}
		p = workload.NewCustom(*wlFile, values)
	} else {
		p, err = patternFromFlags(*pattern, *min, *max, *periods)
		if err != nil {
			fatal(err)
		}
	}
	// Refuse clobbers before the run, not after it: losing a finished
	// simulation to a write error is pointless when the check is free.
	if !*force {
		for _, path := range []string{*traceOut, *jsonOut, *telOut, *chrome} {
			if path == "" || path == "-" {
				continue
			}
			if _, err := os.Stat(path); err == nil {
				fatal(fmt.Errorf("%s exists; pass -force to overwrite", path))
			}
		}
	}
	setup, err := experiment.BenchmarkSetup(p)
	if err != nil {
		fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.Faults = append(cfg.Faults, fails...)
	if *mtbf > 0 {
		cfg.Chaos = chaos.Config{
			NodeMTBF: sim.Time(mtbf.Nanoseconds()),
			NodeMTTR: sim.Time(mttr.Nanoseconds()),
			MaxDown:  cfg.NumNodes - 1,
		}
	}
	cfg.Network.DropProb = *drop
	cfg.Policy = policy.Config{
		Stretch: policy.StretchConfig{MaxFactor: *stretchMax, Step: *stretchStep, UtilTarget: *stretchTarget},
		Shed:    policy.ShedConfig{MandatoryFraction: *shedMandatory, Levels: *shedLevels},
	}
	// Stochastic faults and message loss are only survivable with the
	// hardened manager; scripted -fail crashes stay on the classic path.
	if *mtbf > 0 || *drop > 0 {
		cfg.Degradation = core.HardenedDegradation()
	}
	var probe *core.Observer
	if *telOut != "" || *chrome != "" || *httpAddr != "" {
		probe = &core.Observer{Telemetry: telemetry.New()}
	}
	setups := []core.TaskSetup{setup}
	if *lanes >= 2 {
		// One segment of the default size per lane, each running its own
		// copy of the task (nil Homes sends copy l to lane l).
		cfg.NumNodes *= *lanes
		cfg.Lanes = *lanes
		cfg.Parallel = *parallel
		setups = make([]core.TaskSetup, *lanes)
		for l := range setups {
			s := setup
			s.Spec.Name = fmt.Sprintf("%s-L%d", setup.Spec.Name, l)
			setups[l] = s
		}
	}
	// Validate at the CLI boundary so a misconfigured run reports every
	// invalid field at once instead of failing on the first.
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}
	res, err := core.RunContext(context.Background(), cfg, alg, setups, probe)
	if err != nil {
		fatal(err)
	}

	m := res.Metrics
	fmt.Printf("algorithm        %s\n", alg)
	fmt.Printf("pattern          %s over %d periods\n", p.Name(), p.Periods())
	if cfg.Lanes >= 2 {
		// Deliberately silent about -parallel: worker count is execution
		// strategy, and the output must be byte-identical for every value.
		fmt.Printf("lanes            %d × %d nodes\n", cfg.Lanes, cfg.NumNodes/cfg.Lanes)
	}
	fmt.Printf("completed        %d/%d instances\n", m.Completed, m.Periods)
	fmt.Printf("missed deadlines %d (%.2f%%)\n", m.Missed, m.MissedPct())
	fmt.Printf("mean CPU util    %.2f%%\n", m.CPUUtilPct())
	fmt.Printf("mean net util    %.2f%%\n", m.NetUtilPct())
	fmt.Printf("mean replicas    %.2f of %g (%.1f%% use)\n", m.MeanReplicas, m.MaxReplicas, m.ReplicaUsePct())
	fmt.Printf("adaptations      %d replications, %d shutdowns, %d allocation failures\n",
		m.Replications, m.Shutdowns, m.AllocFailures)
	fmt.Printf("combined metric  C = %.2f\n", m.Combined())
	if m.Crashes > 0 || m.DroppedMessages > 0 || m.Retransmissions > 0 {
		fmt.Printf("chaos            %d crashes, %d recoveries, %d msgs dropped, %d retransmitted",
			m.Crashes, m.Recoveries, m.DroppedMessages, m.Retransmissions)
		if m.MeanRecoveryMS > 0 {
			fmt.Printf(", mean recovery %.1f ms", m.MeanRecoveryMS)
		}
		fmt.Println()
	}
	fmt.Printf("events fired     %d (identical seeds must match exactly)\n", res.EventsFired)

	if len(res.Records) > 0 {
		lat := make([]float64, len(res.Records))
		for i, r := range res.Records {
			lat[i] = r.EndToEnd().Milliseconds()
		}
		s := stats.Summarize(lat)
		fmt.Printf("latency (ms)     p50=%.1f p95=%.1f max=%.1f (deadline %v)\n",
			s.P50, s.P95, s.Max, dynbench.Deadline)
	}

	if probe != nil {
		printTelemetrySummary(probe.Telemetry.Snapshot())
	}

	if *events {
		fmt.Println("\nadaptation events:")
		for _, e := range res.Events {
			fmt.Println(" ", e)
		}
	}
	if *jsonOut != "" {
		writeOutput(*jsonOut, *force, "JSON", func(f io.Writer) error {
			return export.WriteJSON(f, export.FromResult(res, true, true))
		})
	}
	if *traceOut != "" {
		writeOutput(*traceOut, *force, fmt.Sprintf("trace (%d rows)", len(res.Records)), func(f io.Writer) error {
			log := trace.NewLog()
			for _, r := range res.Records {
				log.Record(r)
			}
			return log.WriteRecordsCSV(f)
		})
	}
	if *telOut != "" {
		writeOutput(*telOut, *force, "telemetry snapshot", probe.Telemetry.WriteSnapshot)
	}
	if *chrome != "" {
		writeOutput(*chrome, *force, "Chrome trace", probe.Telemetry.WriteChromeTrace)
	}
	if *httpAddr != "" {
		srv, addr, err := probe.Telemetry.Serve(*httpAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nserving telemetry on http://%s/ (ctrl-c to stop)\n", addr)
		stop := make(chan os.Signal, 1)
		signal.Notify(stop, os.Interrupt)
		<-stop
		srv.Close()
	}
}

// printTelemetrySummary renders the per-stage latency quantiles and
// forecast accuracy the recorder collected during the run.
func printTelemetrySummary(snap telemetry.Snapshot) {
	fmt.Println("\ntelemetry")
	fmt.Println("stage  latency p50/p95/p99/max (ms)        slack p50  forecast MAPE exec/comm")
	for _, st := range snap.Stages {
		var mape string
		for _, fs := range snap.Forecast {
			if fs.Task == st.Task && fs.Stage == st.Stage {
				if fs.Comm.Matched > 0 {
					mape = fmt.Sprintf("%.1f%% / %.1f%%", fs.Exec.MAPEPct, fs.Comm.MAPEPct)
				} else {
					mape = fmt.Sprintf("%.1f%% / -", fs.Exec.MAPEPct)
				}
			}
		}
		l := st.Latency
		fmt.Printf("%s/%-2d %8.1f %8.1f %8.1f %8.1f  %9.2f  %s\n",
			st.Task, st.Stage, l.P50MS, l.P95MS, l.P99MS, l.MaxMS, st.Slack.P50, mape)
	}
	for _, tk := range snap.Tasks {
		l := tk.Latency
		fmt.Printf("%s e2e %6.1f %8.1f %8.1f %8.1f  %9.2f  (%d instances, %d missed)\n",
			tk.Task, l.P50MS, l.P95MS, l.P99MS, l.MaxMS, tk.Slack.P50, tk.Instances, tk.Missed)
	}
	n := snap.Network
	fmt.Printf("network: %d wire / %d local msgs, buffer p95 %.2fms, wire p95 %.2fms\n",
		n.WireMsgs, n.LocalMsgs, n.BufferDelay.P95MS, n.WireDelay.P95MS)
}

// writeOutput opens path for writing — creating parent directories,
// refusing to overwrite an existing file unless -force was given, and
// treating "-" as stdout — then runs write against it.
func writeOutput(path string, force bool, what string, write func(io.Writer) error) {
	if path == "-" {
		if err := write(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
	}
	flags := os.O_WRONLY | os.O_CREATE | os.O_TRUNC
	if !force {
		flags |= os.O_EXCL
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		if os.IsExist(err) {
			fatal(fmt.Errorf("%s exists; pass -force to overwrite", path))
		}
		fatal(err)
	}
	defer f.Close()
	if err := write(f); err != nil {
		fatal(err)
	}
	fmt.Printf("\n%s written to %s\n", what, path)
}

// patternFromFlags builds the -pattern workload through the wire
// schema, so bad flags get the same validation errors a submitted run
// does instead of a constructor panic.
func patternFromFlags(kind string, min, max, periods int) (workload.Pattern, error) {
	p := api.Pattern{Kind: kind, Min: min, Max: max, Periods: periods}
	switch kind {
	case api.PatternTriangular:
		p.Cycles = 2
	case api.PatternSinusoid:
		p.Cycles = 3
	case api.PatternStep:
		p.SwitchAt = periods / 2
	case api.PatternBurst:
		p.Every, p.Len = 20, 5
	case api.PatternConstant:
		p = api.Pattern{Kind: kind, Value: max, Periods: periods}
	}
	return p.ToWorkload()
}

// faultList parses repeated -fail flags of the form node@at[+duration],
// e.g. "2@10.2s+15s"; a missing duration means a permanent crash.
type faultList []core.Fault

func (f *faultList) String() string {
	parts := make([]string, len(*f))
	for i, ft := range *f {
		parts[i] = fmt.Sprintf("%d@%v", ft.Node, ft.At)
		if ft.Duration > 0 {
			parts[i] += fmt.Sprintf("+%v", ft.Duration)
		}
	}
	return strings.Join(parts, ",")
}

func (f *faultList) Set(v string) error {
	nodeStr, rest, ok := strings.Cut(v, "@")
	if !ok {
		return fmt.Errorf("want node@at[+duration], got %q", v)
	}
	node, err := strconv.Atoi(nodeStr)
	if err != nil {
		return fmt.Errorf("bad node in %q: %v", v, err)
	}
	atStr, durStr, hasDur := strings.Cut(rest, "+")
	at, err := time.ParseDuration(atStr)
	if err != nil {
		return fmt.Errorf("bad crash time in %q: %v", v, err)
	}
	ft := core.Fault{Node: node, At: sim.Time(at.Nanoseconds())}
	if hasDur {
		dur, err := time.ParseDuration(durStr)
		if err != nil {
			return fmt.Errorf("bad duration in %q: %v", v, err)
		}
		ft.Duration = sim.Time(dur.Nanoseconds())
	}
	*f = append(*f, ft)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rmsim:", err)
	os.Exit(1)
}

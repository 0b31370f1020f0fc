// Command perfbench is the repository's benchmark. It times one of four
// workloads end to end, checks every output it produces against an
// independent reference, and prints one JSON result as its last line:
//
//	bash perfbench/run.sh --workload service --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; the run
// records no spans and no profile. With --trace 1 the same workload runs
// in alternating untraced and traced rounds, and the result carries the
// per-layer metrics of the traced rounds plus the tracing overhead (the
// traced rounds' median minus the untraced rounds' median). --workload
// all runs the four workloads one after another, each in its own
// process, and prints every metric by name. README.md lists the
// metrics, their definitions, and which end-to-end metric each
// per-layer metric should move.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runner is one named benchmark workload. setup is the program's own
// set-up (what setup_s times); prepare builds untimed references for the
// output checks; round runs one timed unit of work; report turns what
// the rounds accumulated into metrics.
type runner interface {
	setup(b *bench) error
	prepare(b *bench) error
	round(b *bench, tr *tracer) (roundOut, error)
	report(b *bench, rep *report)
	close()
}

// roundOut is what one round hands back: its headline figure (ms per
// pass or run, or the round's median latency from due time), its
// work_per_s and work_per_cpu_s, and how many operations it attempted.
// The reported figures are medians over the untraced rounds, so one
// round that a busy host slowed moves them little; the tracing overhead
// compares the headline between traced and untraced rounds.
type roundOut struct {
	value, perS, perCPU float64
	ops                 int
}

var workloadOrder = []string{"paper-suite", "big-topology", "service", "session-fanout"}

func newWorkload(name string) (runner, bool) {
	switch name {
	case "paper-suite":
		return &suite{}, true
	case "big-topology":
		return &bigTopology{}, true
	case "service":
		return &service{}, true
	case "session-fanout":
		return &fanout{}, true
	}
	return nil, false
}

// bench is the run-wide context every workload sees.
type bench struct {
	name    string
	seed    uint64
	nproc   int
	seconds time.Duration
	trace   bool
	workdir string  // scratch directory inside the checkout, removed at exit
	tr      *tracer // set-up spans; nil in untraced runs
	rep     *report
}

// setupRuns is how many fresh processes time the set-up; setup_s is
// their median, since one process start is too noisy to gate on.
const setupRuns = 21

func main() {
	var (
		name       = flag.String("workload", "", "workload: "+strings.Join(workloadOrder, ", ")+", or all")
		seed       = flag.Uint64("seed", 1, "workload seed: every generated input derives from it")
		seconds    = flag.Int("seconds", 10, "seconds of timed rounds")
		trace      = flag.Int("trace", 0, "1 runs traced and untraced rounds and reports per-layer metrics")
		setupChild = flag.Bool("setup-child", false, "internal: run the workload's set-up once, report when it ended, exit")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *trace))
	}
	w, ok := newWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", *name, strings.Join(workloadOrder, ", "))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	b := &bench{
		name:    *name,
		seed:    *seed,
		nproc:   runtime.NumCPU(),
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		rep:     newReport(),
	}
	work := filepath.Join(".bench_build", "work")
	err := os.MkdirAll(work, 0o755)
	if err == nil {
		b.workdir, err = os.MkdirTemp(work, b.name+"-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	code := 0
	if *setupChild {
		code = runSetupChild(b, w)
	} else {
		code = runOne(b, w)
	}
	w.close()
	os.RemoveAll(b.workdir)
	os.Exit(code)
}

// runSetupChild performs one set-up and prints the wall-clock instant it
// finished, so the parent can time process start to first op.
func runSetupChild(b *bench, w runner) int {
	if err := w.setup(b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
		return 1
	}
	fmt.Println(time.Now().UnixNano())
	return 0
}

// setupTimer times fresh set-ups, each in a new process, from just
// before the process starts to the end of its set-up. The set-ups are
// spread over the timed window, between rounds, so that their median
// stands for the whole run and not for the host's speed at one moment.
type setupTimer struct {
	b *bench
	d dist // seconds
}

// setupsDue is how many of the setupRuns set-ups should have run once a
// share frac of the timed window has passed: one before the first round,
// the last at the end of the window, the rest evenly between.
func setupsDue(frac float64) int {
	return 1 + int(math.Min(math.Max(frac, 0), 1)*(setupRuns-1))
}

// catchUp runs set-ups until setupsDue(frac) have run.
func (t *setupTimer) catchUp(frac float64) error {
	for t.d.n() < setupsDue(frac) {
		if err := t.once(); err != nil {
			return err
		}
	}
	return nil
}

func (t *setupTimer) once() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, "--setup-child", "--workload", t.b.name, "--seed", strconv.FormatUint(t.b.seed, 10))
	cmd.Stderr = os.Stderr
	start := time.Now()
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("set-up process: %w", err)
	}
	ready, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
	if err != nil {
		return fmt.Errorf("set-up process printed %q", out)
	}
	t.d.add(time.Unix(0, ready).Sub(start).Seconds())
	return nil
}

func runOne(b *bench, w runner) int {
	setups := &setupTimer{b: b}
	if err := setups.catchUp(0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if b.trace {
		b.tr = newTracer()
	}
	if err := w.setup(b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
		return 1
	}
	if err := w.prepare(b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reference:", err)
		return 1
	}
	capacity := parallelCapacity(b.nproc)

	var (
		primary            [2]dist // value of untraced, traced rounds
		perS, perCPU       dist    // untraced rounds
		busyWall, busyCPU  time.Duration
		buckets            cpuBuckets
		tracedOps          int
		allocs, allocBytes uint64
		m0, m1             runtime.MemStats
	)
	window := time.Now()
	deadline := window.Add(b.seconds)
	for i := 0; ; i++ {
		traced := b.trace && i%2 == 1
		var tr *tracer
		var prof bytes.Buffer
		if traced {
			tr = b.tr
			runtime.ReadMemStats(&m0)
			if err := pprof.StartCPUProfile(&prof); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 1
			}
		}
		w0, c0 := time.Now(), cpuTime()
		out, err := w.round(b, tr)
		wall, cpu := time.Since(w0), cpuTime()-c0
		if traced {
			pprof.StopCPUProfile()
			runtime.ReadMemStats(&m1)
			n, nb := allocDelta(&m0, &m1)
			allocs, allocBytes = allocs+n, allocBytes+nb
			tracedOps += out.ops
			if perr := buckets.addProfile(prof.Bytes()); perr != nil && err == nil {
				err = perr
			}
		} else {
			busyWall, busyCPU = busyWall+wall, busyCPU+cpu
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s round %d: %v\n", b.name, i, err)
			return 1
		}
		if traced {
			primary[1].add(out.value)
		} else {
			primary[0].add(out.value)
			perS.add(out.perS)
			perCPU.add(out.perCPU)
		}
		if time.Now().After(deadline) && (!b.trace || i%2 == 1) {
			break
		}
		if err := setups.catchUp(float64(time.Since(window)) / float64(b.seconds)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	if err := setups.catchUp(1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	rep := b.rep
	setupS, n := setups.d.pct(50)
	rep.e2e["setup_s"] = setupS
	rep.e2e["peak_rss_mb"] = peakRSSMB()
	rep.notes = append(rep.notes, fmt.Sprintf("untraced rounds, in order: headline %.4g, work_per_s %.4g, work_per_cpu_s %.4g",
		primary[0].vals, perS.vals, perCPU.vals))
	rep.headline, rep.rounds = primary[0].pct(50)
	rep.e2e["work_per_s"], rep.e2eN["work_per_s"] = perS.pct(50)
	rep.e2e["latency_ms"], rep.e2eN["latency_ms"] = rep.headline, rep.rounds
	if bestRound[b.name] {
		rep.e2e["latency_ms"], _ = primary[0].pct(0)
	}
	rep.e2e["work_per_cpu_s"], rep.e2eN["work_per_cpu_s"] = perCPU.pct(50)
	rep.e2eN["setup_s"], rep.e2eN["peak_rss_mb"] = n, 1
	rep.name("setup_s", "s", setupS, n, "median of fresh-process set-ups")
	rep.name("peak_rss_mb", "MB", rep.e2e["peak_rss_mb"], 1, "")
	w.report(b, rep)
	rep.name("failed_pct", "%", share(float64(rep.failed), float64(rep.attempted)), rep.attempted, "")
	if b.trace {
		layerCommon(b, rep, &buckets, tracedOps, allocs, allocBytes)
		rep.layers["host.cpu_busy_pct"] = share(busyCPU.Seconds(), busyWall.Seconds()*float64(b.nproc))
		t, nt := primary[1].pct(50)
		rep.layers["trace.overhead"] = t - rep.headline
		rep.notes = append(rep.notes, fmt.Sprintf("tracing overhead: traced median %.4g − untraced median %.4g = %.4g (%s; %d traced and %d untraced rounds)",
			t, rep.headline, t-rep.headline, headlineOf[b.name], nt, rep.rounds))
	}
	host := hostFacts{
		Workload: b.name, Seed: b.seed, Nproc: b.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		ParallelCapacity: capacity, Seconds: b.seconds.Seconds(), Trace: b.trace,
	}
	rep.print(os.Stdout, host)
	if err := rep.save(b, host); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: saving result:", err)
	}
	if !rep.correct {
		return 1
	}
	return 0
}

// bestRound marks the open-loop workloads, whose latency_ms is their
// best round's p50 rather than the median round's. On a shared host a
// burst of CPU steal or a stalled fsync queues every request due behind
// it and lifts a whole round's latency; the host only ever adds to a
// round's latency, so the best round is the one that shows the program.
var bestRound = map[string]bool{"service": true, "session-fanout": true}

// headlineOf names the figure each workload's rounds report, which the
// tracing overhead is measured on.
var headlineOf = map[string]string{
	"paper-suite":    "ms per pass",
	"big-topology":   "ms per run",
	"service":        "heavy-rate job latency p50, ms",
	"session-fanout": "update lag p50, ms",
}

// layerCommon fills the per-layer metrics every workload shares: CPU
// shares by layer from the traced rounds' profile, and allocation.
func layerCommon(b *bench, rep *report, buckets *cpuBuckets, ops int, allocs, allocBytes uint64) {
	for _, l := range []string{"sim", "cpu", "network", "monitor", "manager", "policy", "regress", "core", "experiment", "api", "json", "session"} {
		rep.layers[l+".cpu_share"] = buckets.sharePct(l)
	}
	rep.layers["server.cpu_share"] = buckets.sharePct("server", "resil", "obs")
	rep.layers["runtime.gc_cpu_share"] = buckets.sharePct("runtime.gc")
	rep.layers["runtime.sched_cpu_share"] = buckets.sharePct("runtime.sched")
	if ops > 0 {
		rep.layers["runtime.allocs_per_op"] = float64(allocs) / float64(ops)
		rep.layers["runtime.alloc_bytes_per_op"] = float64(allocBytes) / float64(ops)
	}
	for _, s := range []string{"models", "server", "topology"} {
		if d := b.tr.durations("setup." + s); d.n() > 0 {
			rep.layers["setup."+s+"_ms"], _ = d.pct(50)
		}
	}
	var top []string
	for k := range buckets.by {
		top = append(top, k)
	}
	sort.Slice(top, func(i, j int) bool { return buckets.by[top[i]] > buckets.by[top[j]] })
	if len(top) > 8 {
		top = top[:8]
	}
	var parts []string
	for _, k := range top {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", k, buckets.sharePct(k)))
	}
	rep.notes = append(rep.notes, "CPU by leaf-frame package (traced rounds): "+strings.Join(parts, ", "))
}

// runAll runs every workload in its own process and prints all metrics.
func runAll(seed uint64, seconds, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, name := range workloadOrder {
		cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if line := sc.Text(); !strings.HasPrefix(line, "{") {
				fmt.Println(line)
			}
		}
		if err := cmd.Wait(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

// hostFacts are what a reader needs to judge a result from another host.
type hostFacts struct {
	Workload         string  `json:"workload"`
	Seed             uint64  `json:"seed"`
	Nproc            int     `json:"nproc"`
	GOMAXPROCS       int     `json:"gomaxprocs"`
	Go               string  `json:"go"`
	ParallelCapacity float64 `json:"parallel_capacity"`
	Seconds          float64 `json:"seconds"`
	Trace            bool    `json:"trace"`
}

// report collects one run's outcome.
type report struct {
	correct   bool
	rounds    int     // untraced rounds the end-to-end medians are taken over
	headline  float64 // median over untraced rounds of each round's headline figure
	attempted int
	failed    int
	problems  []string
	e2e       map[string]float64
	e2eN      map[string]int // samples behind each end-to-end metric
	named     []namedMetric
	layers    map[string]float64
	why       map[string]string // per-layer metrics this workload cannot measure, and why
	notes     []string
}

// namedMetric is one of the end-to-end metrics under its workload's own
// name (suite_s, job_p99_ms, ...), with the samples it was taken over.
type namedMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
	Note  string  `json:"note,omitempty"`
}

func newReport() *report {
	return &report{correct: true, e2e: map[string]float64{}, e2eN: map[string]int{}, layers: map[string]float64{}, why: map[string]string{}}
}

// op counts one attempted operation; a non-nil err counts it failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problem("operation failed: %v", err)
	}
}

// checkFailed records an operation whose output did not match its
// reference: it counts as failed and makes the whole run incorrect.
func (r *report) checkFailed(format string, args ...any) {
	r.failed++
	r.correct = false
	r.problem("output check failed: "+format, args...)
}

func (r *report) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// unmeasured says why a per-layer metric has no value on this workload;
// it is reported as 0.
func (r *report) unmeasured(name string) string {
	if why, ok := r.why[name]; ok {
		return why
	}
	return "this workload does no work in that layer"
}

func (r *report) name(name, unit string, v float64, n int, note string) {
	r.named = append(r.named, namedMetric{name, unit, v, n, note})
}

// print writes the human-readable report, then the one-line JSON result.
func (r *report) print(f *os.File, host hostFacts) {
	fmt.Fprintf(f, "perfbench %s: seed=%d nproc=%d gomaxprocs=%d go=%s parallel_capacity=%.2f seconds=%g trace=%v\n",
		host.Workload, host.Seed, host.Nproc, host.GOMAXPROCS, host.Go, host.ParallelCapacity, host.Seconds, host.Trace)
	for _, m := range r.named {
		fmt.Fprintf(f, "  %-20s %14.4f %-6s n=%d %s\n", m.Name, m.Value, m.Unit, m.N, m.Note)
	}
	for _, p := range r.problems {
		fmt.Fprintln(f, "  PROBLEM:", p)
	}
	for _, n := range r.notes {
		fmt.Fprintln(f, "  "+n)
	}
	metrics := map[string]any{}
	if host.Trace {
		for _, m := range layerMetrics {
			v, ok := r.layers[m.name]
			if ok {
				fmt.Fprintf(f, "  layer %-30s %14.4f %-6s moves %s\n", m.name, v, m.unit, m.moves)
			} else {
				fmt.Fprintf(f, "  layer %-30s %14s %-6s not measured: %s\n", m.name, "0", m.unit, r.unmeasured(m.name))
			}
			metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
		}
	} else {
		for _, m := range e2eMetrics {
			fmt.Fprintf(f, "  e2e %-16s %14.4f %-6s n=%d (%s)\n", m.name, r.e2e[m.name], m.unit, r.e2eN[m.name], m.meaning[host.Workload])
			metrics[m.name] = map[string]any{"value": r.e2e[m.name], "unit": m.unit}
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": metrics,
	})
	fmt.Fprintln(f, string(line))
}

// save writes the full result — host facts, every metric, and in traced
// runs every span — under .bench_build/out.
func (r *report) save(b *bench, host hostFacts) error {
	dir := filepath.Join(".bench_build", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	full := map[string]any{
		"host": host, "correct": r.correct, "attempted": r.attempted, "failed": r.failed,
		"problems": r.problems, "named": r.named, "end_to_end": r.e2e, "notes": r.notes,
	}
	if b.trace {
		full["per_layer"] = r.layers
		b.tr.mu.Lock()
		full["spans"] = b.tr.spans
		defer b.tr.mu.Unlock()
	}
	data, err := json.Marshal(full)
	if err != nil {
		return err
	}
	t := 0
	if b.trace {
		t = 1
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", b.name, b.seed, t)), data, 0o644)
}

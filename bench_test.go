// Package repro's root benchmarks regenerate each paper artifact under
// the Go benchmark harness: one benchmark per table and figure (the
// `rmexperiments` command prints the full sweeps; these time one
// representative unit of each), plus ablation benchmarks for the design
// choices called out in DESIGN.md §5, plus the lane-speedup gate of
// DESIGN.md §9.
package repro

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dynbench"
	"repro/internal/experiment"
	"repro/internal/network"
	"repro/internal/profile"
	"repro/internal/regress"
	"repro/internal/sim"
	"repro/internal/workload"
)

// runOne executes a single simulation run and reports the combined metric.
func runOne(b *testing.B, alg core.Algorithm, pattern workload.Pattern, mutate func(*core.Config)) {
	b.Helper()
	setup, err := experiment.BenchmarkSetup(pattern)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	b.ResetTimer()
	var c float64
	for i := 0; i < b.N; i++ {
		res, err := core.Run(cfg, alg, []core.TaskSetup{setup})
		if err != nil {
			b.Fatal(err)
		}
		c = res.Metrics.Combined()
	}
	b.ReportMetric(c, "combined-C")
}

// --- Tables -------------------------------------------------------------

func BenchmarkTable1BaselineSystemConstruction(b *testing.B) {
	setup, err := experiment.BenchmarkSetup(workload.NewConstant(500, 2))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(core.DefaultConfig(), core.Predictive, []core.TaskSetup{setup}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2ExecRegressionFit(b *testing.B) {
	truth := dynbench.GroundTruthExec(dynbench.FilterStage)
	var samples []regress.ExecSample
	for _, u := range []float64{0, 0.2, 0.4, 0.6, 0.8} {
		for _, items := range []int{300, 900, 2100, 4200, 7500} {
			samples = append(samples, regress.ExecSample{
				Items: items, Util: u, Latency: truth.Latency(items, u)})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := regress.FitExecModel(samples); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3BufferSlopeFit(b *testing.B) {
	samples, err := profile.CommSamples(network.DefaultConfig(), profile.DefaultCommGrid())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := regress.FitBufferSlope(samples); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Profiling figures ---------------------------------------------------

func BenchmarkFig2FilterLatencyCurve(b *testing.B) {
	spec := dynbench.NewTask(dynbench.DefaultConfig())
	grid := profile.ExecGrid{Utils: []float64{0.8}, Items: []int{300, 2100, 4500, 7500}, Reps: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		samples, err := profile.ExecSamples(spec.Subtasks[dynbench.FilterStage].Demand, grid, 23)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := regress.FitPerUtilCurve(samples); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3EvalDecideLatencyCurve(b *testing.B) {
	spec := dynbench.NewTask(dynbench.DefaultConfig())
	grid := profile.ExecGrid{Utils: []float64{0.6}, Items: []int{300, 2100, 4500, 7500}, Reps: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		samples, err := profile.ExecSamples(spec.Subtasks[dynbench.EvalDecideStage].Demand, grid, 23)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := regress.FitPerUtilCurve(samples); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4LatencySurface(b *testing.B) {
	spec := dynbench.NewTask(dynbench.DefaultConfig())
	grid := profile.ExecGrid{
		Utils: []float64{0, 0.4, 0.8},
		Items: []int{300, 2100, 4500, 7500},
		Reps:  1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := profile.ExecSamples(spec.Subtasks[dynbench.FilterStage].Demand, grid, 29); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8WorkloadPatterns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		workload.Series(workload.NewIncreasingRamp(500, 15000, 30))
		workload.Series(workload.NewDecreasingRamp(500, 15000, 30))
		workload.Series(workload.NewTriangular(500, 15000, 30, 1))
	}
}

// --- Evaluation figures (one representative sweep point each) ------------

func BenchmarkFig9TriangularPredictive(b *testing.B) {
	runOne(b, core.Predictive, experiment.TriangularFactory(20*experiment.WorkloadUnit), nil)
}

func BenchmarkFig9TriangularNonPredictive(b *testing.B) {
	runOne(b, core.NonPredictive, experiment.TriangularFactory(20*experiment.WorkloadUnit), nil)
}

func BenchmarkFig10CombinedMetricTriangular(b *testing.B) {
	setupP, err := experiment.BenchmarkSetup(experiment.TriangularFactory(20 * experiment.WorkloadUnit))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, alg := range []core.Algorithm{core.Predictive, core.NonPredictive} {
			if _, err := core.Run(core.DefaultConfig(), alg, []core.TaskSetup{setupP}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkFig11IncreasingRampPoint(b *testing.B) {
	runOne(b, core.Predictive, experiment.IncreasingFactory(20*experiment.WorkloadUnit), nil)
}

func BenchmarkFig12DecreasingRampPoint(b *testing.B) {
	runOne(b, core.Predictive, experiment.DecreasingFactory(20*experiment.WorkloadUnit), nil)
}

func BenchmarkFig13CombinedMetricRamps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, f := range []experiment.PatternFactory{experiment.IncreasingFactory, experiment.DecreasingFactory} {
			setup, err := experiment.BenchmarkSetup(f(20 * experiment.WorkloadUnit))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := core.Run(core.DefaultConfig(), core.Predictive, []core.TaskSetup{setup}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Ablations (DESIGN.md §5) --------------------------------------------

// BenchmarkAblationOverlapZero removes the replica data halo: replication
// becomes free on the network, isolating the halo's contribution to the
// combined metric.
func BenchmarkAblationOverlapZero(b *testing.B) {
	runOne(b, core.Predictive, experiment.TriangularFactory(20*experiment.WorkloadUnit),
		func(c *core.Config) { c.OverlapFraction = 0 })
}

// BenchmarkAblationNoWarmup removes the replica spawn cost.
func BenchmarkAblationNoWarmup(b *testing.B) {
	runOne(b, core.Predictive, experiment.TriangularFactory(20*experiment.WorkloadUnit),
		func(c *core.Config) { c.WarmupDemand = 0 })
}

// BenchmarkAblationRRFastPath measures the scheduler's lone-job fast path
// against forced per-slice interleaving (two co-located jobs).
func BenchmarkAblationRRFastPath(b *testing.B) {
	b.Run("lone-job", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := sim.NewEngine()
			p := cpu.NewProcessor(eng, 0, cpu.DefaultSlice)
			p.Submit(&cpu.Job{Demand: 500 * sim.Millisecond})
			eng.Run()
		}
	})
	b.Run("contended", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := sim.NewEngine()
			p := cpu.NewProcessor(eng, 0, cpu.DefaultSlice)
			p.Submit(&cpu.Job{Demand: 250 * sim.Millisecond})
			p.Submit(&cpu.Job{Demand: 250 * sim.Millisecond})
			eng.Run()
		}
	})
}

// BenchmarkEngineEventThroughput is the simulation substrate's raw speed.
func BenchmarkEngineEventThroughput(b *testing.B) {
	eng := sim.NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(sim.Microsecond, func() {})
		eng.Step()
	}
}

// BenchmarkSegmentThroughput times message transport on the shared medium.
func BenchmarkSegmentThroughput(b *testing.B) {
	eng := sim.NewEngine()
	seg := network.NewSegment(eng, network.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg.Send(&network.Message{From: i % 6, To: (i + 1) % 6, PayloadBytes: 8000})
		eng.Run()
	}
}

// BenchmarkAblationDisciplines compares simulation cost across CPU
// scheduling disciplines at a fixed workload point.
func BenchmarkAblationDisciplines(b *testing.B) {
	for _, d := range []cpu.Discipline{cpu.RoundRobin, cpu.FIFO, cpu.ProcessorSharing} {
		d := d
		b.Run(d.String(), func(b *testing.B) {
			runOne(b, core.Predictive, experiment.TriangularFactory(20*experiment.WorkloadUnit),
				func(c *core.Config) { c.Discipline = d })
		})
	}
}

// BenchmarkClockSyncOverhead measures the cost of running the Mills-style
// synchronizer and node-local clocks alongside the workload.
func BenchmarkClockSyncOverhead(b *testing.B) {
	runOne(b, core.Predictive, experiment.TriangularFactory(20*experiment.WorkloadUnit),
		func(c *core.Config) { c.ClockSync = true })
}

// --- Lane speedup gate (DESIGN.md §9) -------------------------------------

// The big-topology run: 8 network segments (lanes) of 8 processors each,
// loaded with six tasks per segment drawn from two period classes (the
// Table 1 second, and a half-period class at twice the rate).
const (
	bigTopologyLanes    = 8
	bigTopologyPeriods  = 256 // anchor pattern length; sizes the serial run
	bigTopologyNumTasks = 6 * bigTopologyLanes
)

// bigTopologyPattern varies demand shape by task index so segments adapt
// on decorrelated schedules rather than in lockstep. periods is the
// pattern length: the fast period class gets twice as many so both
// classes span the same simulated horizon.
func bigTopologyPattern(i, periods int) workload.Pattern {
	switch i % 3 {
	case 0:
		return workload.NewStep(500, 6000, periods, periods/2)
	case 1:
		return workload.NewTriangular(500, 5000, periods, 4)
	default:
		return workload.NewConstant(2500, periods)
	}
}

func bigTopologySetups() ([]core.TaskSetup, error) {
	setups := make([]core.TaskSetup, bigTopologyNumTasks)
	for i := range setups {
		// Second period class: twice the rate, twice the pattern length.
		// With nil Homes, task i lands on lane i mod lanes, so every lane
		// gets three tasks from each class.
		fast := i >= bigTopologyNumTasks/2
		periods := bigTopologyPeriods
		if fast {
			periods *= 2
		}
		s, err := experiment.BenchmarkSetup(bigTopologyPattern(i, periods))
		if err != nil {
			return nil, err
		}
		s.Spec.Name = fmt.Sprintf("BT%02d", i)
		if fast {
			s.Spec.Period /= 2
			s.Spec.Deadline /= 2
		}
		setups[i] = s
	}
	return setups, nil
}

// The parallel big-topology run must beat its serial twin by at least
// minLaneSpeedup on best-of-N wall time — the point of the sharded
// simulation core. The gate binds only on a host with real parallel
// capacity (≥ minGateCapacity on the spin test) at GOMAXPROCS ≥ 4; a
// one-core runner reports the ratio but cannot meaningfully fail it.
const (
	minLaneSpeedup  = 1.7
	minGateCapacity = 3.0
)

// laneGate applies the lane-speedup rule to one measurement.
func laneGate(speedup, capacity float64, gomaxprocs int) (binding, pass bool) {
	binding = capacity >= minGateCapacity && gomaxprocs >= 4
	return binding, !binding || speedup >= minLaneSpeedup
}

// spinSink defeats dead-code elimination of the capacity spin loops.
var spinSink uint64

func spinWork(n int) uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// measureParallelCapacity runs an embarrassingly parallel spin load at
// GOMAXPROCS≥4 and reports serial wall / parallel wall — the host's real
// capacity to run four goroutines at once. runtime.NumCPU is useless for
// this inside containers (it reads the cgroup's view, which is often 1
// while the scheduler happily runs on more cores), so we measure.
func measureParallelCapacity() float64 {
	if prev := runtime.GOMAXPROCS(0); prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	const shards = 4
	const iters = 30_000_000
	spinSink += spinWork(iters) // warm up the loop and the scheduler

	start := time.Now()
	for s := 0; s < shards; s++ {
		spinSink += spinWork(iters)
	}
	serial := time.Since(start)

	results := make([]uint64, shards)
	var wg sync.WaitGroup
	start = time.Now()
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			results[s] = spinWork(iters)
		}(s)
	}
	wg.Wait()
	parallel := time.Since(start)
	for _, r := range results {
		spinSink += r
	}
	if parallel <= 0 {
		return 1
	}
	return float64(serial) / float64(parallel)
}

// BenchmarkLaneSpeedup times the 64-node, 8-lane run with the serial
// lane driver and with one worker per lane, best of b.N each, and gates
// their ratio with laneGate. Run it with
//
//	go test -run '^$' -bench '^BenchmarkLaneSpeedup$' -benchtime 3x .
func BenchmarkLaneSpeedup(b *testing.B) {
	setups, err := bigTopologySetups()
	if err != nil {
		b.Fatal(err)
	}
	bestOf := func(workers int) time.Duration {
		cfg := core.DefaultConfig()
		cfg.NumNodes = bigTopologyLanes * 8
		cfg.Lanes = bigTopologyLanes
		cfg.Parallel = workers
		best := time.Duration(math.MaxInt64)
		for i := 0; i < b.N; i++ {
			start := time.Now()
			if _, err := core.Run(cfg, core.Predictive, setups); err != nil {
				b.Fatal(err)
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	b.ResetTimer()
	serial, parallel := bestOf(1), bestOf(bigTopologyLanes)
	b.StopTimer()

	speedup := float64(serial) / float64(parallel)
	capacity := measureParallelCapacity()
	procs := runtime.GOMAXPROCS(0)
	b.ReportMetric(speedup, "speedup-x")
	b.ReportMetric(capacity, "capacity-x")
	binding, pass := laneGate(speedup, capacity, procs)
	msg := fmt.Sprintf("serial %v / parallel %v = %.2f× (need ≥ %.1f×; host capacity %.2f×, GOMAXPROCS %d)",
		serial, parallel, speedup, minLaneSpeedup, capacity, procs)
	switch {
	case !pass:
		b.Fatal("lane speedup below the bar: " + msg)
	case !binding:
		b.Logf("lane speedup not binding (needs capacity ≥ %.0f× and GOMAXPROCS ≥ 4): %s", minGateCapacity, msg)
	default:
		b.Log("lane speedup: " + msg)
	}
}

// TestLaneSpeedupGate pins when the lane-speedup gate binds and when it
// fails.
func TestLaneSpeedupGate(t *testing.T) {
	for _, tc := range []struct {
		name                string
		speedup, capacity   float64
		gomaxprocs          int
		wantBinding, wantOK bool
	}{
		{"binding pass", 2.0, 4, 4, true, true},
		{"binding fail below bar", 1.25, 4, 4, true, false},
		{"low capacity not binding", 1.25, 1, 4, false, true},
		{"low GOMAXPROCS not binding", 1.25, 4, 2, false, true},
	} {
		binding, pass := laneGate(tc.speedup, tc.capacity, tc.gomaxprocs)
		if binding != tc.wantBinding || pass != tc.wantOK {
			t.Errorf("%s: laneGate(%.2f, %.1f, %d) = (%v, %v), want (%v, %v)", tc.name,
				tc.speedup, tc.capacity, tc.gomaxprocs, binding, pass, tc.wantBinding, tc.wantOK)
		}
	}
}

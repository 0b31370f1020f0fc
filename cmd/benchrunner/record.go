package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// snapshotSchema versions BENCH_3.json; bump on incompatible changes so
// bench-diff can refuse to compare across schemas.
const snapshotSchema = "benchrunner/v1"

// opRecord is one timed op: wall time, the process's CPU time consumed
// while it ran (user+system, all goroutines — sweeps fan out workers, so
// CPU > wall means parallelism, not error), and the allocation delta.
type opRecord struct {
	WallNs int64  `json:"wall_ns"`
	CPUNs  int64  `json:"cpu_ns"`
	Allocs uint64 `json:"allocs"`
	Bytes  uint64 `json:"bytes"`
}

// workloadRecord is one workload's measured summary. Gating compares
// WallMinNs: best-of-N is the noise-robust statistic, since interference
// can only slow an op down, never speed the work itself up.
type workloadRecord struct {
	Name  string     `json:"name"`
	Gated bool       `json:"gated"`
	Desc  string     `json:"desc"`
	Ops   []opRecord `json:"ops"`

	WallMinNs   int64  `json:"wall_min_ns"`
	WallMeanNs  int64  `json:"wall_mean_ns"`
	WallP50Ns   int64  `json:"wall_p50_ns"`
	WallMaxNs   int64  `json:"wall_max_ns"`
	CPUMeanNs   int64  `json:"cpu_mean_ns"`
	AllocsPerOp uint64 `json:"allocs_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`

	// Profiled re-run: the same ops with pprof CPU profiling active and
	// one heap profile written per op, timed inside the op window. The
	// overhead percentage is mean-vs-mean; small negatives are noise.
	ProfiledWallMeanNs  int64    `json:"profiled_wall_mean_ns,omitempty"`
	ProfilerOverheadPct *float64 `json:"profiler_overhead_pct,omitempty"`

	// Parallelism conditions in effect for the timed ops. GOMAXPROCS is
	// always recorded; Lanes and Workers only for lane-partitioned
	// workloads. bench-diff uses these to decide whether a speedup ratio
	// is meaningful on the recording host.
	GOMAXPROCS int `json:"gomaxprocs"`
	Lanes      int `json:"lanes,omitempty"`
	Workers    int `json:"workers,omitempty"`
}

// snapshot is the BENCH_3.json document.
type snapshot struct {
	Schema     string `json:"schema"`
	Recorded   string `json:"recorded"`
	GoVersion  string `json:"go"`
	Iterations int    `json:"iterations"`
	// ParallelCapacity is the host's measured speedup on an embarrassingly
	// parallel spin load at GOMAXPROCS=4 (serial wall / parallel wall).
	// Containers often report NumCPU=1 while scheduling onto more cores,
	// so this is measured, not read from the runtime; bench-diff only
	// enforces parallel-vs-serial speedup gates when it is high enough.
	ParallelCapacity float64          `json:"parallel_capacity"`
	Workloads        []workloadRecord `json:"workloads"`
}

// runRecord measures every selected workload and writes the snapshot.
func runRecord(out string, names []string, iters int, profile bool) error {
	if iters < 1 {
		return fmt.Errorf("iterations must be ≥ 1 (got %d)", iters)
	}
	selected, err := selectBenches(names)
	if err != nil {
		return err
	}
	snap := snapshot{
		Schema:           snapshotSchema,
		Recorded:         time.Now().UTC().Format(time.RFC3339),
		GoVersion:        runtime.Version(),
		Iterations:       iters,
		ParallelCapacity: measureParallelCapacity(),
	}
	fmt.Fprintf(os.Stderr, "host parallel capacity %.2f× (spin test at GOMAXPROCS=4)\n", snap.ParallelCapacity)
	for _, b := range selected {
		rec, err := measureWorkload(b, iters, profile)
		if err != nil {
			return fmt.Errorf("%s: %w", b.name, err)
		}
		snap.Workloads = append(snap.Workloads, rec)
		line := fmt.Sprintf("%-20s wall min %v mean %v  cpu %v  %d allocs/op",
			rec.Name, time.Duration(rec.WallMinNs), time.Duration(rec.WallMeanNs),
			time.Duration(rec.CPUMeanNs), rec.AllocsPerOp)
		if rec.ProfilerOverheadPct != nil {
			line += fmt.Sprintf("  pprof overhead %+.1f%%", *rec.ProfilerOverheadPct)
		}
		fmt.Fprintln(os.Stderr, line)
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "snapshot written to %s\n", out)
	return nil
}

// measureWorkload preps a workload once, runs one untimed warm-up op,
// then iters timed ops — and, when profiling, iters more with pprof
// CPU+heap collection active to measure the profilers' cost.
func measureWorkload(b bench, iters int, profile bool) (workloadRecord, error) {
	if b.needGOMAXPROCS > 0 && runtime.GOMAXPROCS(0) < b.needGOMAXPROCS {
		// Containerized hosts often report NumCPU=1 while offering more
		// parallel capacity; the lane workloads need real scheduler
		// threads to mean anything. Restored after the workload.
		prev := runtime.GOMAXPROCS(b.needGOMAXPROCS)
		defer runtime.GOMAXPROCS(prev)
	}
	op, cleanup, err := b.prep()
	if err != nil {
		return workloadRecord{}, err
	}
	if cleanup != nil {
		defer cleanup()
	}

	// Warm-up: page in code paths and, for warm-memo workloads, populate
	// the scheduler memo the timed ops are meant to hit.
	if b.preOp != nil {
		b.preOp()
	}
	if err := op(); err != nil {
		return workloadRecord{}, err
	}

	ops, err := timeOps(b, op, iters, false)
	if err != nil {
		return workloadRecord{}, err
	}
	rec := summarize(b, ops)

	if profile {
		if err := pprof.StartCPUProfile(io.Discard); err != nil {
			return workloadRecord{}, err
		}
		profiled, perr := timeOps(b, op, iters, true)
		pprof.StopCPUProfile()
		if perr != nil {
			return workloadRecord{}, perr
		}
		var sum int64
		for _, o := range profiled {
			sum += o.WallNs
		}
		rec.ProfiledWallMeanNs = sum / int64(len(profiled))
		pct := float64(rec.ProfiledWallMeanNs-rec.WallMeanNs) / float64(rec.WallMeanNs) * 100
		rec.ProfilerOverheadPct = &pct
	}
	return rec, nil
}

// timeOps runs iters timed windows of reps op executions each (see
// bench.reps), bracketed by CPU and allocation reads; recorded figures
// are per rep. With heapProfile set, each window also writes one heap
// profile inside the timed region — the periodic collection cost a
// profiling harness pays, amortized like a real collector's cadence.
func timeOps(b bench, op func() error, iters int, heapProfile bool) ([]opRecord, error) {
	reps := b.reps
	if reps < 1 {
		reps = 1
	}
	// Settle the heap so one workload's garbage does not bill the next
	// workload's timed windows with its collection.
	runtime.GC()
	ops := make([]opRecord, 0, iters)
	for i := 0; i < iters; i++ {
		if b.preOp != nil {
			b.preOp()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cpu0 := cpuTime()
		start := time.Now()
		var err error
		for r := 0; r < reps && err == nil; r++ {
			err = op()
		}
		if err == nil && heapProfile {
			err = pprof.WriteHeapProfile(io.Discard)
		}
		wall := time.Since(start)
		cpu1 := cpuTime()
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, err
		}
		ops = append(ops, opRecord{
			WallNs: wall.Nanoseconds() / int64(reps),
			CPUNs:  int64(cpu1-cpu0) / int64(reps),
			Allocs: (after.Mallocs - before.Mallocs) / uint64(reps),
			Bytes:  (after.TotalAlloc - before.TotalAlloc) / uint64(reps),
		})
	}
	return ops, nil
}

// summarize folds per-op records into the workload summary.
func summarize(b bench, ops []opRecord) workloadRecord {
	rec := workloadRecord{
		Name: b.name, Gated: b.gated, Desc: b.desc, Ops: ops,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Lanes: b.lanes, Workers: b.workers,
	}
	walls := make([]int64, len(ops))
	var wallSum, cpuSum int64
	var allocSum, byteSum uint64
	for i, o := range ops {
		walls[i] = o.WallNs
		wallSum += o.WallNs
		cpuSum += o.CPUNs
		allocSum += o.Allocs
		byteSum += o.Bytes
	}
	sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
	n := int64(len(ops))
	rec.WallMinNs = walls[0]
	rec.WallMaxNs = walls[len(walls)-1]
	rec.WallP50Ns = walls[len(walls)/2]
	rec.WallMeanNs = wallSum / n
	rec.CPUMeanNs = cpuSum / n
	rec.AllocsPerOp = allocSum / uint64(n)
	rec.BytesPerOp = byteSum / uint64(n)
	return rec
}

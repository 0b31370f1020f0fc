package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// cpuTime returns the process's cumulative user+system CPU time, every
// goroutine included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

var spinSink uint64

func spin(n int) uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// parallelCapacity measures how many CPU-bound goroutines the host
// really runs at once: the wall time of n spin shards run one after
// another over their wall time run side by side. The lane workers of
// big-topology and the scheduler's sweep width can speed a run up by at
// most this factor, whatever runtime.NumCPU says.
func parallelCapacity(n int) float64 {
	const iters = 20_000_000
	spinSink += spin(iters)
	start := time.Now()
	for i := 0; i < n; i++ {
		spinSink += spin(iters)
	}
	serial := time.Since(start)
	res := make([]uint64, n)
	var wg sync.WaitGroup
	start = time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i] = spin(iters)
		}(i)
	}
	wg.Wait()
	parallel := time.Since(start)
	for _, r := range res {
		spinSink += r
	}
	return float64(serial) / float64(parallel)
}

// allocDelta is the heap allocation between two MemStats readings.
func allocDelta(a, b *runtime.MemStats) (objects, bytes uint64) {
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}

// nowCPU and sinceCPU bracket an operation in wall and process CPU time.
func nowCPU() (time.Time, time.Duration) { return time.Now(), cpuTime() }

func sinceCPU(w time.Time, c time.Duration) (time.Duration, time.Duration) {
	return time.Since(w), cpuTime() - c
}

package main

import (
	"math"
	"sort"
	"time"
)

// dist is a set of samples of one quantity. Every percentile it reports
// carries the sample count it was taken over, so a p99 from 40 samples
// is never mistaken for a measured tail.
type dist struct {
	vals   []float64
	sorted bool
}

func (d *dist) add(v float64) {
	d.vals = append(d.vals, v)
	d.sorted = false
}

func (d *dist) n() int { return len(d.vals) }

// pct returns the p-th percentile (0 ≤ p ≤ 100) by linear interpolation
// between closest ranks, and the sample count. An empty dist reports 0.
func (d *dist) pct(p float64) (float64, int) {
	if len(d.vals) == 0 {
		return 0, 0
	}
	if !d.sorted {
		sort.Float64s(d.vals)
		d.sorted = true
	}
	return quantile(d.vals, p/100), len(d.vals)
}

// quantile interpolates the q-quantile of ascending samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// tailResolved reports whether the p-th percentile of n samples has at
// least ten samples beyond it — the smallest tail worth quoting.
func tailResolved(p float64, n int) bool {
	return float64(n)*(1-p/100) >= 10
}

// tailNote flags a percentile too far out for its sample count.
func tailNote(p float64, n int) string {
	if tailResolved(p, n) {
		return ""
	}
	return "fewer than 10 samples beyond this percentile"
}

func (d *dist) sum() float64 {
	s := 0.0
	for _, v := range d.vals {
		s += v
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// share returns part/base as a percentage, 0 when base is 0.
func share(part, base float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * part / base
}

// dedupRatio is the fraction of requested scheduler cells that did not
// need a fresh simulation, on the base of cells requested.
func dedupRatio(requested, simulated uint64) float64 {
	if requested == 0 {
		return 0
	}
	return 1 - float64(simulated)/float64(requested)
}

// evictedPct is hub evictions per 100 intended deliveries, where an
// intended delivery is one frame owed to one subscriber.
func evictedPct(evictions uint64, intended int) float64 {
	return share(float64(evictions), float64(intended))
}

package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean; it panics on an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Mean of empty slice")
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance; it panics on an empty slice.
func Variance(xs []float64) float64 {
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// SampleVariance returns the unbiased (n−1 denominator) variance; it
// panics on fewer than two values, where the estimator is undefined.
func SampleVariance(xs []float64) float64 {
	if len(xs) < 2 {
		panic(fmt.Sprintf("stats: SampleVariance needs ≥2 values, got %d", len(xs)))
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// SampleStdDev returns the sample standard deviation (n−1 denominator).
func SampleStdDev(xs []float64) float64 { return math.Sqrt(SampleVariance(xs)) }

// tCritical95 tabulates the two-sided 95% Student-t critical values for
// 1–30 degrees of freedom (the exact range Monte Carlo replication
// counts land in).
var tCritical95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCritical95 returns the two-sided 95% Student-t critical value for df
// degrees of freedom. Beyond the tabulated range it steps down through
// the standard anchors (40, 60, 120 df), holding each anchor's value
// until the next — slightly conservative (wider intervals), never
// anti-conservative. It panics on df < 1.
func TCritical95(df int) float64 {
	switch {
	case df < 1:
		panic(fmt.Sprintf("stats: TCritical95 df=%d < 1", df))
	case df <= len(tCritical95):
		return tCritical95[df-1]
	case df < 40:
		return tCritical95[len(tCritical95)-1]
	case df < 60:
		return 2.021
	case df < 120:
		return 2.000
	default:
		return 1.980
	}
}

// MeanCI95 returns the sample mean and the half-width of its 95%
// confidence interval (Student t with n−1 degrees of freedom). With a
// single value the half-width is zero — there is no spread to estimate.
// It panics on an empty slice.
func MeanCI95(xs []float64) (mean, half float64) {
	mean = Mean(xs)
	if len(xs) < 2 {
		return mean, 0
	}
	half = TCritical95(len(xs)-1) * SampleStdDev(xs) / math.Sqrt(float64(len(xs)))
	return mean, half
}

// MinMax returns the smallest and largest values; it panics on an empty
// slice.
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		panic("stats: MinMax of empty slice")
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) by linear
// interpolation between closest ranks.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: Percentile p=%v out of [0,100]", p))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Summary bundles the descriptive statistics reported in experiment
// tables.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	P50    float64
	P95    float64
	Max    float64
}

// Summarize computes a Summary; it panics on an empty slice.
func Summarize(xs []float64) Summary {
	min, max := MinMax(xs)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    min,
		P50:    Percentile(xs, 50),
		P95:    Percentile(xs, 95),
		Max:    max,
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g p50=%.4g p95=%.4g max=%.4g",
		s.N, s.Mean, s.StdDev, s.Min, s.P50, s.P95, s.Max)
}

// Bucket is one histogram bin: Count observations fell in (Lo, Hi].
type Bucket struct {
	Lo, Hi float64
	Count  uint64
}

// BucketQuantile returns the p-th percentile (0 ≤ p ≤ 100) estimated from
// a bucketed CDF by linear interpolation inside the containing bucket —
// the streaming-quantile primitive shared by the telemetry histograms.
// Buckets must be sorted by bound and non-overlapping; empty buckets are
// allowed. It panics when every bucket is empty.
func BucketQuantile(buckets []Bucket, p float64) float64 {
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: BucketQuantile p=%v out of [0,100]", p))
	}
	var total uint64
	for _, b := range buckets {
		total += b.Count
	}
	if total == 0 {
		panic("stats: BucketQuantile of empty histogram")
	}
	rank := p / 100 * float64(total)
	var cum float64
	for _, b := range buckets {
		if b.Count == 0 {
			continue
		}
		next := cum + float64(b.Count)
		if rank <= next {
			frac := (rank - cum) / float64(b.Count)
			return b.Lo + frac*(b.Hi-b.Lo)
		}
		cum = next
	}
	last := buckets[len(buckets)-1]
	return last.Hi
}

package stats

import (
	"math"
	"math/rand/v2"
	"testing"
)

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	fn()
}

func TestBucketQuantileUniform(t *testing.T) {
	// 10 unit-wide buckets with equal counts approximate Uniform(0, 10):
	// every percentile should come back within one bucket width.
	var buckets []Bucket
	for i := 0; i < 10; i++ {
		buckets = append(buckets, Bucket{Lo: float64(i), Hi: float64(i + 1), Count: 100})
	}
	for _, p := range []float64{0, 10, 25, 50, 75, 90, 99, 100} {
		got := BucketQuantile(buckets, p)
		want := p / 10
		if math.Abs(got-want) > 1 {
			t.Errorf("p%.0f: got %v, want ~%v", p, got, want)
		}
	}
}

func TestBucketQuantileSkipsEmptyBuckets(t *testing.T) {
	buckets := []Bucket{
		{Lo: 0, Hi: 1, Count: 0},
		{Lo: 1, Hi: 2, Count: 4},
		{Lo: 2, Hi: 3, Count: 0},
		{Lo: 3, Hi: 4, Count: 4},
	}
	if got := BucketQuantile(buckets, 0); got < 1 || got > 2 {
		t.Errorf("p0 = %v, want inside (1,2]", got)
	}
	if got := BucketQuantile(buckets, 100); got < 3 || got > 4 {
		t.Errorf("p100 = %v, want inside (3,4]", got)
	}
}

func TestBucketQuantileVsExact(t *testing.T) {
	// Bucket a concrete sample and check the interpolated quantiles stay
	// within one bucket width of the exact sorted-slice quantiles.
	rng := rand.New(rand.NewPCG(7, 11))
	var xs []float64
	const width = 0.5
	buckets := make([]Bucket, 40)
	for i := range buckets {
		buckets[i].Lo = float64(i) * width
		buckets[i].Hi = float64(i+1) * width
	}
	for i := 0; i < 5000; i++ {
		x := rng.Float64() * 20
		xs = append(xs, x)
		buckets[int(x/width)].Count++
	}
	for _, p := range []float64{1, 25, 50, 75, 95, 99} {
		got := BucketQuantile(buckets, p)
		want := Percentile(xs, p)
		if math.Abs(got-want) > width {
			t.Errorf("p%.0f: bucketed %v vs exact %v (tolerance %v)", p, got, want, width)
		}
	}
}

func TestBucketQuantileErrors(t *testing.T) {
	buckets := []Bucket{{Lo: 0, Hi: 1, Count: 1}}
	mustPanic(t, "p out of range", func() { BucketQuantile(buckets, -1) })
	mustPanic(t, "p out of range", func() { BucketQuantile(buckets, 101) })
	mustPanic(t, "empty histogram", func() { BucketQuantile([]Bucket{{Lo: 0, Hi: 1}}, 50) })
}

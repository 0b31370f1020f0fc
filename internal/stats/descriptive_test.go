package stats

import (
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
}

func TestMeanEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Mean of empty slice did not panic")
		}
	}()
	Mean(nil)
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); got != 4 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 2})
	if min != -1 || max != 7 {
		t.Errorf("MinMax = %v,%v", min, max)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := map[float64]float64{0: 1, 50: 3, 100: 5, 25: 2}
	for p, want := range cases {
		if got := Percentile(xs, p); got != want {
			t.Errorf("P%v = %v, want %v", p, got, want)
		}
	}
	// Interpolation between ranks.
	if got := Percentile([]float64{10, 20}, 50); got != 15 {
		t.Errorf("P50 of {10,20} = %v, want 15", got)
	}
	if got := Percentile([]float64{42}, 95); got != 42 {
		t.Errorf("P95 of single = %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile sorted the caller's slice")
	}
}

func TestPercentileOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("p=101 did not panic")
		}
	}()
	Percentile([]float64{1}, 101)
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Errorf("Summary = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty Summary string")
	}
}

// Property: min ≤ p50 ≤ p95 ≤ max and min ≤ mean ≤ max.
func TestPropertySummaryOrdering(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if v == v && v < 1e300 && v > -1e300 { // drop NaN/huge
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.P50 && s.P50 <= s.P95 && s.P95 <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSlidingWindow(t *testing.T) {
	w := NewSlidingWindow(3)
	if w.Len() != 0 {
		t.Fatal("new window not empty")
	}
	w.Push(1)
	w.Push(2)
	if w.Mean() != 1.5 || w.Len() != 2 {
		t.Errorf("mean=%v len=%d", w.Mean(), w.Len())
	}
	w.Push(3)
	w.Push(4) // evicts 1
	if w.Mean() != 3 {
		t.Errorf("mean after eviction = %v, want 3", w.Mean())
	}
	if w.Last() != 4 {
		t.Errorf("Last = %v", w.Last())
	}
	w.Reset()
	if w.Len() != 0 {
		t.Error("Reset did not empty window")
	}
}

func TestSlidingWindowLastWrap(t *testing.T) {
	w := NewSlidingWindow(2)
	w.Push(1)
	w.Push(2)
	w.Push(3) // next wraps to 0 after this? Push(3) evicts 1; buffer [3,2], next=1
	if w.Last() != 3 {
		t.Errorf("Last = %v, want 3", w.Last())
	}
}

func TestSlidingWindowEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Mean of empty window did not panic")
		}
	}()
	NewSlidingWindow(2).Mean()
}

func TestSlidingWindowBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("capacity 0 did not panic")
		}
	}()
	NewSlidingWindow(0)
}

// Property: window mean equals mean of the last k pushed values.
func TestPropertySlidingWindowMean(t *testing.T) {
	f := func(raw []uint8, cap8 uint8) bool {
		capacity := int(cap8%8) + 1
		w := NewSlidingWindow(capacity)
		var all []float64
		for _, v := range raw {
			x := float64(v)
			w.Push(x)
			all = append(all, x)
		}
		if len(all) == 0 {
			return true
		}
		tail := all
		if len(tail) > capacity {
			tail = tail[len(tail)-capacity:]
		}
		return approxEq(w.Mean(), Mean(tail), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSampleVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := SampleVariance(xs); !approxEq(got, 32.0/7, 1e-12) {
		t.Errorf("SampleVariance = %v, want %v", got, 32.0/7)
	}
	if got := SampleStdDev([]float64{1, 5}); !approxEq(got, 2.8284271247461903, 1e-12) {
		t.Errorf("SampleStdDev = %v", got)
	}
}

func TestSampleVarianceSingletonPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SampleVariance of one value did not panic")
		}
	}()
	SampleVariance([]float64{1})
}

func TestTCritical95(t *testing.T) {
	for _, tc := range []struct {
		df   int
		want float64
	}{
		{1, 12.706}, {2, 4.303}, {9, 2.262}, {30, 2.042},
		{35, 2.042}, {45, 2.021}, {80, 2.000}, {500, 1.980},
	} {
		if got := TCritical95(tc.df); got != tc.want {
			t.Errorf("TCritical95(%d) = %v, want %v", tc.df, got, tc.want)
		}
	}
	// Monotone non-increasing: more data never widens the interval.
	prev := TCritical95(1)
	for df := 2; df <= 200; df++ {
		cur := TCritical95(df)
		if cur > prev {
			t.Fatalf("TCritical95 increased at df=%d: %v > %v", df, cur, prev)
		}
		prev = cur
	}
}

func TestTCritical95ZeroDFPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("df 0 did not panic")
		}
	}()
	TCritical95(0)
}

func TestMeanCI95(t *testing.T) {
	mean, half := MeanCI95([]float64{42})
	if mean != 42 || half != 0 {
		t.Errorf("single value: mean=%v half=%v", mean, half)
	}
	// n=4, sd=1 → half = t(3)·1/√4 = 3.182/2.
	mean, half = MeanCI95([]float64{1, 2, 3, 4})
	if !approxEq(mean, 2.5, 1e-12) {
		t.Errorf("mean = %v", mean)
	}
	want := 3.182 * SampleStdDev([]float64{1, 2, 3, 4}) / 2
	if !approxEq(half, want, 1e-12) {
		t.Errorf("half = %v, want %v", half, want)
	}
	// Identical values: zero spread, zero interval.
	if _, half := MeanCI95([]float64{7, 7, 7}); half != 0 {
		t.Errorf("constant sample half = %v", half)
	}
}

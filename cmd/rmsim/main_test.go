package main

import (
	"reflect"
	"testing"

	"repro/internal/workload"
)

// TestPatternFromFlags pins every -pattern kind to the generator it has
// always selected, with the same shape parameters.
func TestPatternFromFlags(t *testing.T) {
	const min, max, periods = 500, 12000, 120
	for kind, want := range map[string]workload.Pattern{
		"triangular": workload.NewTriangular(min, max, periods, 2),
		"increasing": workload.NewIncreasingRamp(min, max, periods),
		"decreasing": workload.NewDecreasingRamp(min, max, periods),
		"step":       workload.NewStep(min, max, periods, periods/2),
		"burst":      workload.NewBurst(min, max, periods, 20, 5),
		"sinusoid":   workload.NewSinusoid(min, max, periods, 3),
		"constant":   workload.NewConstant(max, periods),
	} {
		got, err := patternFromFlags(kind, min, max, periods)
		if err != nil {
			t.Errorf("%s: %v", kind, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %#v, want %#v", kind, got, want)
		}
	}
}

// TestPatternFromFlagsRejects: flags the generators would panic on, and
// kinds rmsim cannot build from -min/-max/-periods, are errors.
func TestPatternFromFlagsRejects(t *testing.T) {
	for _, tc := range []struct {
		name              string
		kind              string
		min, max, periods int
	}{
		{"min above max", "triangular", 5000, 100, 120},
		{"zero periods", "step", 500, 12000, 0},
		{"zero periods constant", "constant", 500, 12000, 0},
		{"unknown kind", "zigzag", 500, 12000, 120},
		{"custom kind", "custom", 500, 12000, 120},
	} {
		if p, err := patternFromFlags(tc.kind, tc.min, tc.max, tc.periods); err == nil {
			t.Errorf("%s: got pattern %#v, want an error", tc.name, p)
		}
	}
}

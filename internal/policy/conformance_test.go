package policy_test

// Policy conformance suite.
//
// Every policy in the registry — built-in or future — must satisfy the
// same contract before it is allowed into the tournament:
//
//  1. Determinism: the same seed produces byte-identical metrics and the
//     same engine event count, twice in a row.
//  2. Clean baseline: on a workload with no overload, a policy must not
//     regress met deadlines — adaptation machinery that costs deadlines
//     while idle is broken.
//  3. Bounded reaction: after an injected node crash the run records the
//     crash, observes the recovery, and the crash → first-met-deadline
//     time stays within a small multiple of the task period.
//  4. Fingerprint sensitivity: every policy knob must change the run
//     fingerprint, or the scheduler would serve a knob A result for a
//     knob B request from cache.
//
// Behavior preservation for the two paper algorithms (byte-identical
// golden CSVs for predictive and non-predictive) is pinned separately by
// the golden harness in internal/experiment — this file covers the
// properties that must hold for *every* registered name.

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// conformanceSetup builds the paper's benchmark task over the given
// pattern, failing the test on error.
func conformanceSetup(t *testing.T, p workload.Pattern) core.TaskSetup {
	t.Helper()
	setup, err := experiment.BenchmarkSetup(p)
	if err != nil {
		t.Fatal(err)
	}
	return setup
}

// TestConformanceDeterminism runs every registered policy twice on an
// overload-inducing workload (so the stretch/shed controllers actually
// engage) and requires identical metrics and event counts.
func TestConformanceDeterminism(t *testing.T) {
	t.Parallel()
	for _, name := range policy.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := core.DefaultConfig()
			cfg.Seed = 42
			pat := experiment.TriangularFactory(16 * experiment.WorkloadUnit)
			a, err := core.Run(cfg, core.Algorithm(name), []core.TaskSetup{conformanceSetup(t, pat)})
			if err != nil {
				t.Fatal(err)
			}
			b, err := core.Run(cfg, core.Algorithm(name), []core.TaskSetup{conformanceSetup(t, pat)})
			if err != nil {
				t.Fatal(err)
			}
			if a.Metrics != b.Metrics {
				t.Errorf("metrics differ across identical runs:\n  first  %+v\n  second %+v", a.Metrics, b.Metrics)
			}
			if a.EventsFired != b.EventsFired {
				t.Errorf("events fired differ across identical runs: %d vs %d", a.EventsFired, b.EventsFired)
			}
		})
	}
}

// TestConformanceCleanBaseline runs every policy on a light constant
// workload that needs no adaptation. No policy may miss a deadline
// there, and the degrading policies must keep their machinery idle: no
// stretched periods, no shed items.
func TestConformanceCleanBaseline(t *testing.T) {
	t.Parallel()
	for _, name := range policy.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := core.DefaultConfig()
			cfg.Seed = 7
			setup := conformanceSetup(t, workload.NewConstant(4*experiment.WorkloadUnit, 40))
			res, err := core.Run(cfg, core.Algorithm(name), []core.TaskSetup{setup})
			if err != nil {
				t.Fatal(err)
			}
			m := res.Metrics
			if m.Missed != 0 {
				t.Errorf("missed %d deadlines on a no-overload workload (completed %d/%d)",
					m.Missed, m.Completed, m.Periods)
			}
			if m.Completed == 0 {
				t.Error("no periods completed")
			}
			if m.StretchedPeriods != 0 {
				t.Errorf("stretched %d periods with no overload", m.StretchedPeriods)
			}
			if m.ShedItems != 0 {
				t.Errorf("shed %d items with no overload", m.ShedItems)
			}
		})
	}
}

// TestConformanceCrashReaction injects a 5-second crash on node 2 under
// the hardened manager and requires every policy to record it, observe
// the recovery, and bound the crash → first-met-deadline time.
func TestConformanceCrashReaction(t *testing.T) {
	t.Parallel()
	// The benchmark task's period is 500ms; recovery inside 10 periods is
	// generous for every built-in, and any policy that blows past it is
	// stalling the adaptation loop.
	const maxRecoveryMS = 5000.0
	for _, name := range policy.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := core.DefaultConfig()
			cfg.Seed = 11
			cfg.Faults = []core.Fault{{Node: 2, At: 10 * sim.Second, Duration: 5 * sim.Second}}
			cfg.Degradation = core.HardenedDegradation()
			setup := conformanceSetup(t, workload.NewConstant(12*experiment.WorkloadUnit, 60))
			res, err := core.Run(cfg, core.Algorithm(name), []core.TaskSetup{setup})
			if err != nil {
				t.Fatal(err)
			}
			m := res.Metrics
			if m.Crashes < 1 {
				t.Fatalf("injected crash not recorded: crashes=%d", m.Crashes)
			}
			if m.Recoveries < 1 {
				t.Fatalf("crash recovery not observed: recoveries=%d", m.Recoveries)
			}
			if m.MeanRecoveryMS > maxRecoveryMS {
				t.Errorf("mean recovery %.1f ms exceeds the %d ms reaction bound",
					m.MeanRecoveryMS, int(maxRecoveryMS))
			}
		})
	}
}

// TestConformanceFingerprintKnobs reflectively walks every leaf of
// policy.Config, perturbs it, and requires the run fingerprint to move:
// a knob the fingerprint ignores would let the scheduler alias two runs
// that differ in that knob.
func TestConformanceFingerprintKnobs(t *testing.T) {
	t.Parallel()
	setup := conformanceSetup(t, experiment.TriangularFactory(4*experiment.WorkloadUnit))
	base := core.DefaultConfig()
	seen := map[string]string{
		"(baseline)": experiment.RunKey(base, core.PeriodStretch, []core.TaskSetup{setup}),
	}
	var walk func(v reflect.Value, path string, cfg *core.Config)
	walk = func(v reflect.Value, path string, cfg *core.Config) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name, cfg)
			}
		case reflect.Float64:
			old := v.Float()
			v.SetFloat(old + 0.125)
			seen[path] = experiment.RunKey(*cfg, core.PeriodStretch, []core.TaskSetup{setup})
			v.SetFloat(old)
		case reflect.Int:
			old := v.Int()
			v.SetInt(old + 3)
			seen[path] = experiment.RunKey(*cfg, core.PeriodStretch, []core.TaskSetup{setup})
			v.SetInt(old)
		default:
			t.Fatalf("policy.Config leaf %s has unhandled kind %s — extend the conformance walk", path, v.Kind())
		}
	}
	cfg := base
	walk(reflect.ValueOf(&cfg.Policy).Elem(), "Policy", &cfg)
	if len(seen) < 6 { // baseline + the 5 knobs; grows with new knobs
		t.Fatalf("walk visited only %d fingerprints — policy.Config lost leaves?", len(seen))
	}
	byFP := make(map[string]string, len(seen))
	for path, fp := range seen {
		if other, dup := byFP[fp]; dup {
			t.Errorf("knob %s does not move the fingerprint (aliases %s)", path, other)
		}
		byFP[fp] = path
	}
}

// TestConformanceRegistryShape guards the registry contract itself:
// every entry names itself consistently, cites a paper, and builds a
// working allocator from a default environment.
func TestConformanceRegistryShape(t *testing.T) {
	t.Parallel()
	names := policy.Names()
	if len(names) < 4 {
		t.Fatalf("registry holds %d policies, want at least the 4 built-ins", len(names))
	}
	setup := conformanceSetup(t, workload.NewConstant(experiment.WorkloadUnit, 10))
	for _, name := range names {
		pol, ok := policy.Lookup(name)
		if !ok {
			t.Fatalf("Names() lists %q but Lookup misses it", name)
		}
		if pol.Name() != name {
			t.Errorf("policy registered as %q reports Name()=%q", name, pol.Name())
		}
		if pol.Paper() == "" {
			t.Errorf("policy %q cites no paper", name)
		}
		env := policy.TaskEnv{
			Exec:          setup.Exec,
			Comm:          setup.Comm,
			NumNodes:      core.DefaultConfig().NumNodes,
			UtilThreshold: core.DefaultConfig().UtilThreshold,
		}
		alloc, err := pol.NewAllocator(env)
		if err != nil {
			t.Errorf("policy %q: NewAllocator: %v", name, err)
		} else if alloc == nil {
			t.Errorf("policy %q: NewAllocator returned nil", name)
		}
	}
}

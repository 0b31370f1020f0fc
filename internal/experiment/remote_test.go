package experiment

import (
	"context"
	"testing"

	"repro/internal/api"
	"repro/internal/core"
)

// TestEncodeRunRequestRoundTrip: an ordinary benchmark run is
// wire-expressible, and its encoded form materializes back to the same
// content-addressed cell.
func TestEncodeRunRequestRoundTrip(t *testing.T) {
	setup, err := BenchmarkSetup(TriangularFactory(4 * WorkloadUnit))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = 880001
	setups := []core.TaskSetup{setup}

	req, ok := EncodeRunRequest(cfg, core.Predictive, setups)
	if !ok {
		t.Fatal("benchmark run should be wire-expressible")
	}
	mcfg, malg, msetups, err := MaterializeRun(req)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := RunKey(mcfg, malg, msetups), RunKey(cfg, core.Predictive, setups); got != want {
		t.Errorf("materialized fingerprint %s != original %s", got, want)
	}
}

// TestEncodeRunRequestRejectsInexpressible: runs the schema cannot carry
// must stay local.
func TestEncodeRunRequestRejectsInexpressible(t *testing.T) {
	setup, err := BenchmarkSetup(TriangularFactory(4 * WorkloadUnit))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()

	homed := setup
	homed.Homes = []int{0}
	if _, ok := EncodeRunRequest(cfg, core.Predictive, []core.TaskSetup{homed}); ok {
		t.Error("explicit home placements should not be expressible")
	}

	if _, ok := EncodeRunRequest(cfg, core.Predictive, []core.TaskSetup{setup, setup}); ok {
		t.Error("multi-task runs should not be expressible")
	}
}

// TestRemoteRunnerDelegation: with a remote runner installed, a
// wire-expressible run is delegated (visible in the Remote counter and
// the sentinel result) and an inexpressible run still simulates locally.
func TestRemoteRunnerDelegation(t *testing.T) {
	setup, err := BenchmarkSetup(TriangularFactory(4 * WorkloadUnit))
	if err != nil {
		t.Fatal(err)
	}
	sentinel := RunOutcome{EventsFired: 424242}
	var gotReq api.RunRequest
	SetRemoteRunner(func(ctx context.Context, req api.RunRequest) (RunOutcome, error) {
		gotReq = req
		return sentinel, nil
	})
	defer SetRemoteRunner(nil)

	cfg := core.DefaultConfig()
	cfg.Seed = 880002 // unique cell: must not collide with other tests' memoized runs
	d := statsDelta(func() {
		out, err := ScheduledRun(context.Background(), cfg, core.Predictive, []core.TaskSetup{setup})
		if err != nil {
			t.Fatal(err)
		}
		if out != sentinel {
			t.Errorf("delegated run returned %+v, want the remote sentinel", out)
		}
	})
	if d.Remote != 1 {
		t.Errorf("remote counter moved by %d, want 1", d.Remote)
	}
	if gotReq.Algorithm != string(core.Predictive) || gotReq.SchemaVersion != api.SchemaVersion {
		t.Errorf("remote runner saw request %+v", gotReq)
	}
	if d.Simulated != 0 {
		t.Errorf("delegated run also simulated locally (%d)", d.Simulated)
	}

	// An inexpressible run (explicit homes) bypasses the remote runner.
	homed := setup
	homed.Homes = []int{0, 1, 2, 3, 4}
	cfg.Seed = 880003
	d = statsDelta(func() {
		if _, err := ScheduledRun(context.Background(), cfg, core.Predictive, []core.TaskSetup{homed}); err != nil {
			t.Fatal(err)
		}
	})
	if d.Simulated != 1 {
		t.Errorf("inexpressible run simulated %d cells locally, want 1", d.Simulated)
	}
}

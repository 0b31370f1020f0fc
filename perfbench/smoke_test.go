package main

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/api"
)

// The smoke tests run one short round of each workload from the package
// directory (so the committed results are ../results), then hand each
// output check a corrupted reference and require it to fail the run.

func testBench(t *testing.T, name string) *bench {
	t.Helper()
	if testing.Short() {
		t.Skip("workload smoke run")
	}
	return &bench{name: name, seed: 3, nproc: runtime.NumCPU(), seconds: time.Second, workdir: t.TempDir(), rep: newReport()}
}

func mustRound(t *testing.T, b *bench, w runner) {
	t.Helper()
	if _, err := w.round(b, nil); err != nil {
		t.Fatal(err)
	}
}

func wantClean(t *testing.T, rep *report) {
	t.Helper()
	if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("clean run: correct=%v attempted=%d failed=%d problems=%v", rep.correct, rep.attempted, rep.failed, rep.problems)
	}
}

func wantCaught(t *testing.T, rep *report) {
	t.Helper()
	if rep.correct || rep.failed == 0 {
		t.Fatalf("corrupted reference went unnoticed: correct=%v failed=%d", rep.correct, rep.failed)
	}
}

func TestSmokePaperSuite(t *testing.T) {
	b := testBench(t, "paper-suite")
	s := &suite{resultsDir: "../results"}
	if err := s.setup(b); err != nil {
		t.Fatal(err)
	}
	if err := s.prepare(b); err != nil {
		t.Fatal(err)
	}
	mustRound(t, b, s)
	wantClean(t, b.rep)

	b.rep = newReport()
	ref := append([]byte(nil), s.refs["fig9"]...)
	ref[len(ref)-2] ^= 1
	s.refs["fig9"] = ref
	mustRound(t, b, s)
	wantCaught(t, b.rep)
}

func TestSmokeBigTopology(t *testing.T) {
	b := testBench(t, "big-topology")
	bt := &bigTopology{}
	if err := bt.setup(b); err != nil {
		t.Fatal(err)
	}
	if err := bt.prepare(b); err != nil {
		t.Fatal(err)
	}
	mustRound(t, b, bt)
	wantClean(t, b.rep)

	b.rep = newReport()
	bt.refEvents++
	mustRound(t, b, bt)
	wantCaught(t, b.rep)

	b.rep = newReport()
	bt.refEvents--
	bt.refDigest = "0" + bt.refDigest[1:]
	mustRound(t, b, bt)
	wantCaught(t, b.rep)
}

func TestSmokeService(t *testing.T) {
	b := testBench(t, "service")
	s := &service{}
	defer s.close()
	if err := s.setup(b); err != nil {
		t.Fatal(err)
	}
	if err := s.prepare(b); err != nil {
		t.Fatal(err)
	}
	mustRound(t, b, s)
	s.verify(b.rep)
	wantClean(t, b.rep)

	var checked, repeated *svcJob
	for _, j := range s.jobs {
		switch {
		case j.err != nil:
		case j.check && checked == nil:
			checked = j
		case j.repeats >= 0 && repeated == nil:
			repeated = j
		}
	}
	if checked == nil || repeated == nil {
		t.Fatal("round drew no checked fresh job or no repeat")
	}
	for _, j := range []*svcJob{checked, repeated} {
		b.rep = newReport()
		saved := *j.res
		bad := saved
		bad.EventsFired++
		j.res = &bad
		s.verify(b.rep)
		wantCaught(t, b.rep)
		j.res = &saved
	}
}

func TestSmokeSessionFanout(t *testing.T) {
	b := testBench(t, "session-fanout")
	f := &fanout{}
	defer f.close()
	if err := f.setup(b); err != nil {
		t.Fatal(err)
	}
	if err := f.prepare(b); err != nil {
		t.Fatal(err)
	}
	mustRound(t, b, f)
	wantClean(t, b.rep)
	if f.acc[0].deliveries == 0 || f.acc[0].lag.n() == 0 {
		t.Fatalf("no deliveries measured: %+v", f.acc[0])
	}
}

// sink feeds frames through the SSE writer path, as the stream handler
// does, and returns the folding subscriber.
func sink(t *testing.T, evs ...api.Event) *sseSink {
	t.Helper()
	s := &sseSink{recv: map[uint64]time.Time{}}
	for _, ev := range evs {
		if err := ev.WriteSSE(s); err != nil {
			t.Fatal(err)
		}
		s.Flush()
	}
	return s
}

func TestFanoutChecksCatchCorruption(t *testing.T) {
	live := api.Session{State: api.SessionRunning}
	done := api.Session{State: api.SessionDone}
	s1 := api.SessionState{SimMS: 1000, Nodes: []api.SessionNode{{Util: 0.5}}, Tasks: []api.SessionTask{{Name: "T", Stages: [][]int{{0}}, Completed: 1}}}
	s2 := s1.Clone()
	s2.SimMS, s2.Tasks[0].Completed, s2.Tasks[0].Stages = 2000, 2, [][]int{{0, 1}}
	d := api.DiffStates(s1, s2)
	snap := api.Event{Type: api.EventSnapshot, Seq: 1, Session: &live, Snapshot: &s1}
	diff := api.Event{Type: api.EventDiff, Seq: 2, Session: &done, Diff: &d}

	rep := newReport()
	verifySubs(rep, []*sseSink{sink(t, snap, diff)}, s2)
	wantClean(t, rep)

	rep = newReport()
	corrupt := s2.Clone()
	corrupt.Tasks[0].Completed++
	verifySubs(rep, []*sseSink{sink(t, snap, diff)}, corrupt)
	wantCaught(t, rep)

	rep = newReport()
	replayed := diff
	replayed.Seq = 1 // a frame that does not advance the seq
	verifySubs(rep, []*sseSink{sink(t, snap, replayed)}, s2)
	wantCaught(t, rep)
}

// BENCHMARK.json and the tables the program prints must name the same
// workloads and metrics.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(spec.Workloads), len(workloadOrder))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in program", i, w.Name, workloadOrder[i])
		}
	}
	if len(spec.EndToEnd) != len(e2eMetrics) || len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("metric counts differ: e2e %d vs %d, per-layer %d vs %d",
			len(spec.EndToEnd), len(e2eMetrics), len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.EndToEnd {
		if g := e2eMetrics[i]; m.Name != g.name || m.Unit != g.unit || m.Better != g.better {
			t.Errorf("end_to_end %d: %+v in BENCHMARK.json, %+v in program", i, m, g)
		}
	}
	for i, m := range spec.PerLayer {
		if g := layerMetrics[i]; m.Name != g.name || m.Unit != g.unit || m.Better != g.better {
			t.Errorf("per_layer %d: %+v in BENCHMARK.json, %+v in program", i, m, g)
		}
	}
}

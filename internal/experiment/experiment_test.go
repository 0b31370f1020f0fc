package experiment

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dynbench"
)

func quickCtx() Context { return Context{Quick: true} }

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) == 0 {
		t.Fatal("empty registry")
	}
	want := []string{
		"table1", "table2", "table3",
		"fig2", "fig3", "fig4", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"ext-threshold", "ext-multitask", "ext-slack", "ext-ut", "ext-patterns", "ext-faults", "ext-seeds", "ext-allocators", "ext-models", "ext-overlap", "ext-warmup", "ext-sched", "ext-smoothing", "ext-telemetry",
	}
	ids := make(map[string]bool)
	for _, e := range all {
		if ids[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
		if e.Run == nil || e.Title == "" || e.Paper == "" {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	for _, id := range want {
		if !ids[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("fig9"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Notes:   []string{"a note"},
	}
	tab.AddRow(1, 2.5)
	tab.AddRow("x", "y")
	var txt strings.Builder
	if err := tab.Render(&txt); err != nil {
		t.Fatal(err)
	}
	out := txt.String()
	for _, want := range []string{"## demo", "a  bb", "1  2.500", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	var csv strings.Builder
	if err := tab.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "a,bb\n1,2.500\n") {
		t.Errorf("csv = %q", csv.String())
	}
}

func TestDefaultModelsQuality(t *testing.T) {
	m, err := DefaultModels()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Exec) != dynbench.NumSubtasks {
		t.Fatalf("exec models = %d", len(m.Exec))
	}
	for i, q := range m.ExecFit {
		if q.R2 < 0.98 {
			t.Errorf("stage %d fit R² = %v", i, q.R2)
		}
	}
	if m.Comm.K <= 0 {
		t.Errorf("comm K = %v", m.Comm.K)
	}
	if err := m.Comm.Validate(); err != nil {
		t.Error(err)
	}
}

func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			out, err := e.Run(quickCtx())
			if err != nil {
				t.Fatal(err)
			}
			if out.ID != e.ID {
				t.Errorf("output id %q", out.ID)
			}
			if len(out.Tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tab := range out.Tables {
				if len(tab.Rows) == 0 {
					t.Errorf("table %q empty", tab.Title)
				}
				if len(tab.Columns) == 0 {
					t.Errorf("table %q has no columns", tab.Title)
				}
				for _, row := range tab.Rows {
					if len(row) != len(tab.Columns) {
						t.Errorf("table %q row width %d != %d columns", tab.Title, len(row), len(tab.Columns))
					}
				}
			}
		})
	}
}

// The paper's headline claim: under the fluctuating (triangular) pattern
// the predictive algorithm's combined metric is never worse, and is
// strictly better once replication is in play.
func TestHeadlineOrderingTriangular(t *testing.T) {
	results, err := Sweep(context.Background(), quickCtx().sweepPoints(), TriangularFactory, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	points, pred, nonpred := byPoint(results)
	strictlyBetter := 0
	for _, p := range points {
		cp, cn := pred[p].Combined(), nonpred[p].Combined()
		if cp > cn*1.02 {
			t.Errorf("point %d: predictive C %.2f worse than non-predictive %.2f", p, cp, cn)
		}
		if cp < cn*0.98 {
			strictlyBetter++
		}
	}
	if strictlyBetter == 0 {
		t.Error("predictive never strictly better — Figure 10's separation missing")
	}
	// Figure 9(d): the non-predictive algorithm uses at least as many
	// replicas everywhere it adapts.
	for _, p := range points {
		if nonpred[p].MeanReplicas < pred[p].MeanReplicas-0.05 {
			t.Errorf("point %d: non-predictive replicas %.2f below predictive %.2f",
				p, nonpred[p].MeanReplicas, pred[p].MeanReplicas)
		}
	}
	// At the smallest workload the algorithms coincide (§5.2: "for
	// smaller workloads where no replication is needed, the performance
	// of both algorithms is the same").
	if p0 := points[0]; pred[p0].Replications != 0 || nonpred[p0].Replications != 0 {
		t.Error("replication triggered at the no-load point")
	}
}

func TestSweepDeterministic(t *testing.T) {
	a, err := Sweep(context.Background(), []int{10}, TriangularFactory, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Reset so the second sweep re-simulates instead of reading the
	// scheduler's run memo — equality must come from determinism.
	ResetSweepCache()
	b, err := Sweep(context.Background(), []int{10}, TriangularFactory, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("sweep diverged at %d:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// TestCachedSweepReturnsSameSlice repeats an identical sweep and asserts
// the second call is served wholly from the run memo: no cell simulates
// again and the returned points equal the first call's.
func TestCachedSweepReturnsSameSlice(t *testing.T) {
	ResetSweepCache()
	x, err := Sweep(context.Background(), []int{4}, TriangularFactory, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var y []PointResult
	d := statsDelta(func() {
		y, err = Sweep(context.Background(), []int{4}, TriangularFactory, 1, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Simulated != 0 {
		t.Errorf("identical sweep simulated %d cells, want 0 (cache miss)", d.Simulated)
	}
	if !reflect.DeepEqual(x, y) {
		t.Errorf("identical sweep returned different points:\n%+v\n%+v", x, y)
	}
}

func TestBenchmarkSetupUsesProfiledModels(t *testing.T) {
	s, err := BenchmarkSetup(TriangularFactory(4000))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Exec) != len(s.Spec.Subtasks) {
		t.Fatalf("setup exec models = %d", len(s.Exec))
	}
	if _, err := core.Run(core.DefaultConfig(), core.Predictive, []core.TaskSetup{s}); err != nil {
		t.Fatal(err)
	}
}

func TestPatternFactoriesDegenerate(t *testing.T) {
	for _, f := range []PatternFactory{TriangularFactory, IncreasingFactory, DecreasingFactory} {
		p := f(0)
		if p.Size(0) != MinWorkload {
			t.Errorf("degenerate factory returned %d, want min workload", p.Size(0))
		}
		if p.Periods() != SweepPeriods {
			t.Errorf("degenerate factory periods = %d", p.Periods())
		}
	}
}

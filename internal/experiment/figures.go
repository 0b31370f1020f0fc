package experiment

import (
	"context"
	"fmt"

	"repro/internal/api"
	"repro/internal/ascii"
	"repro/internal/dynbench"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/regress"
	"repro/internal/workload"
)

func init() {
	register(Experiment{ID: "fig2", Paper: "Figure 2",
		Title: "Filter execution latency at 80% CPU utilization vs data size",
		Run:   figLatencyCurve("fig2", dynbench.FilterStage, "Filter", 0.8)})
	register(Experiment{ID: "fig3", Paper: "Figure 3",
		Title: "EvalDecide execution latency at 60% CPU utilization vs data size",
		Run:   figLatencyCurve("fig3", dynbench.EvalDecideStage, "EvalDecide", 0.6)})
	register(Experiment{ID: "fig4", Paper: "Figure 4",
		Title: "Filter execution latency surface over CPU utilization and data size",
		Run:   runFig4})
	register(Experiment{ID: "fig8", Paper: "Figure 8",
		Title: "Workload patterns used by the evaluation",
		Run:   runFig8})
	register(Experiment{ID: "fig9", Paper: "Figure 9(a-d)",
		Title: "Triangular pattern: MD%, CPU%, Net%, mean replicas vs max workload",
		Run:   figMetricsSweep("fig9", "triangular", TriangularFactory)})
	register(Experiment{ID: "fig10", Paper: "Figure 10",
		Title: "Triangular pattern: combined performance metric vs max workload",
		Run:   figCombinedSweep("fig10", "triangular", TriangularFactory)})
	register(Experiment{ID: "fig11", Paper: "Figure 11(a-d)",
		Title: "Increasing ramp: MD%, CPU%, Net%, mean replicas vs max workload",
		Run:   figMetricsSweep("fig11", "increasing", IncreasingFactory)})
	register(Experiment{ID: "fig12", Paper: "Figure 12(a-d)",
		Title: "Decreasing ramp: MD%, CPU%, Net%, mean replicas vs max workload",
		Run:   figMetricsSweep("fig12", "decreasing", DecreasingFactory)})
	register(Experiment{ID: "fig13", Paper: "Figure 13(a,b)",
		Title: "Ramp patterns: combined performance metric vs max workload",
		Run:   runFig13})
}

// figLatencyCurve reproduces Figures 2–3: measured latencies (y), the
// per-utilization second-order fit (Y), and the combined two-variable
// model (Y⁻) evaluated at one utilization.
func figLatencyCurve(id string, stage int, name string, util float64) func(Context) (Output, error) {
	return func(ctx Context) (Output, error) {
		spec := dynbench.NewTask(dynbench.DefaultConfig())
		grid := profile.ExecGrid{Utils: []float64{util}, Items: figureSizes(), Reps: 3}
		samples, err := profile.ExecSamples(spec.Subtasks[stage].Demand, grid, 23)
		if err != nil {
			return Output{}, err
		}
		a, b, err := regress.FitPerUtilCurve(samples)
		if err != nil {
			return Output{}, err
		}
		combined, err := DefaultModels()
		if err != nil {
			return Output{}, err
		}
		t := &Table{
			Title: fmt.Sprintf("%s — %s latency at %.0f%% CPU utilization (1 size unit = 300 tracks)",
				id, name, util*100),
			Columns: []string{"size units", "measured y (ms)", "per-util fit Y (ms)", "combined fit Y- (ms)"},
			Notes: []string{
				"y: mean of repeated measurements on the simulated node under background load",
				fmt.Sprintf("Y: a·d²+b·d with a=%.4g b=%.4g (d in hundreds of tracks)", a, b),
				"Y-: the full eq. (3) model fitted over all utilizations, evaluated at this one",
			},
		}
		means := meanByItems(samples)
		var xs []int
		var y, fitY, fitY2 []float64
		for _, items := range figureSizes() {
			d := float64(items) / regress.ItemsPerUnit
			t.AddRow(
				items/300,
				means[items],
				a*d*d+b*d,
				combined.Exec[stage].LatencyMS(d, util),
			)
			xs = append(xs, items/300)
			y = append(y, means[items])
			fitY = append(fitY, a*d*d+b*d)
			fitY2 = append(fitY2, combined.Exec[stage].LatencyMS(d, util))
		}
		chart := &ascii.Chart{
			Title:   fmt.Sprintf("%s — %s latency (ms) at %.0f%% utilization", id, name, util*100),
			XLabel:  "data size (1 unit = 300 tracks)",
			XValues: xs,
			Height:  12,
			Series: []ascii.Series{
				{Name: "measured y", Points: y},
				{Name: "per-util fit Y", Points: fitY},
				{Name: "combined fit Y-", Points: fitY2},
			},
		}
		return Output{ID: id, Tables: []*Table{t}, Charts: []*ascii.Chart{chart}}, nil
	}
}

// figureSizes are the x-axis of Figures 2–4: up to 25 units of 300 tracks.
func figureSizes() []int {
	var out []int
	for units := 1; units <= 25; units += 2 {
		out = append(out, units*300)
	}
	return out
}

func meanByItems(samples []regress.ExecSample) map[int]float64 {
	sum := make(map[int]float64)
	n := make(map[int]int)
	for _, s := range samples {
		sum[s.Items] += s.Latency.Milliseconds()
		n[s.Items]++
	}
	for k := range sum {
		sum[k] /= float64(n[k])
	}
	return sum
}

func runFig4(ctx Context) (Output, error) {
	spec := dynbench.NewTask(dynbench.DefaultConfig())
	utils := []float64{0, 0.2, 0.4, 0.6, 0.8}
	grid := profile.ExecGrid{Utils: utils, Items: figureSizes(), Reps: 2}
	samples, err := profile.ExecSamples(spec.Subtasks[dynbench.FilterStage].Demand, grid, 29)
	if err != nil {
		return Output{}, err
	}
	t := &Table{
		Title:   "fig4 — Filter latency (ms) over CPU utilization × data size",
		Columns: []string{"size units"},
	}
	for _, u := range utils {
		t.Columns = append(t.Columns, fmt.Sprintf("u=%.0f%%", u*100))
	}
	byKey := make(map[[2]int][]float64)
	for _, s := range samples {
		k := [2]int{s.Items, int(s.Util * 100)}
		byKey[k] = append(byKey[k], s.Latency.Milliseconds())
	}
	var xs []int
	series := make([]ascii.Series, len(utils))
	for i, u := range utils {
		series[i].Name = fmt.Sprintf("u=%.0f%%", u*100)
	}
	for _, items := range figureSizes() {
		row := []any{items / 300}
		for i, u := range utils {
			vals := byKey[[2]int{items, int(u * 100)}]
			var m float64
			for _, v := range vals {
				m += v
			}
			row = append(row, m/float64(len(vals)))
			series[i].Points = append(series[i].Points, m/float64(len(vals)))
		}
		t.AddRow(row...)
		xs = append(xs, items/300)
	}
	chart := &ascii.Chart{
		Title:   "fig4 — Filter latency surface (ms), one series per utilization",
		XLabel:  "data size (1 unit = 300 tracks)",
		XValues: xs,
		Height:  12,
		Series:  series,
	}
	return Output{ID: "fig4", Tables: []*Table{t}, Charts: []*ascii.Chart{chart}}, nil
}

func runFig8(Context) (Output, error) {
	const periods, min, max = 30, 500, 15000
	patterns := []workload.Pattern{
		workload.NewIncreasingRamp(min, max, periods),
		workload.NewDecreasingRamp(min, max, periods),
		workload.NewTriangular(min, max, periods, 1),
	}
	t := &Table{
		Title:   "fig8 — workload patterns (tracks per period)",
		Columns: []string{"period"},
	}
	for _, p := range patterns {
		t.Columns = append(t.Columns, p.Name())
	}
	var xs []int
	series := make([]ascii.Series, len(patterns))
	for i, p := range patterns {
		series[i].Name = p.Name()
	}
	for c := 0; c < periods; c++ {
		row := []any{c}
		for i, p := range patterns {
			row = append(row, p.Size(c))
			series[i].Points = append(series[i].Points, float64(p.Size(c)))
		}
		t.AddRow(row...)
		xs = append(xs, c)
	}
	chart := &ascii.Chart{
		Title:   "fig8 — workload patterns (tracks per period)",
		XLabel:  "period",
		XValues: xs,
		Height:  12,
		Series:  series,
	}
	return Output{ID: "fig8", Tables: []*Table{t}, Charts: []*ascii.Chart{chart}}, nil
}

// ciNote explains the CI columns appended under Monte Carlo replication.
func ciNote(seeds int) string {
	return fmt.Sprintf("each value is the mean over %d seed replications; ± columns are the "+
		"half-width of the 95%% confidence interval (Student t)", seeds)
}

// figMetricsSweep reproduces the four-panel figures (9, 11, 12). With
// ctx.Seeds ≥ 2 every cell is replicated under per-replication seeds and
// rendered as mean with ± 95% CI columns; with a single seed the output
// is byte-identical to the historical single-run tables.
func figMetricsSweep(id, key string, factory PatternFactory) func(Context) (Output, error) {
	return func(ctx Context) (Output, error) {
		results, err := Sweep(context.Background(), ctx.sweepPoints(), factory, ctx.Parallelism, ctx.seeds())
		if err != nil {
			return Output{}, err
		}
		ci := ctx.seeds() > 1
		points, pred, nonpred := byPoint(results)
		t := &Table{
			Title: fmt.Sprintf("%s — %s pattern (1 workload unit = 500 tracks, %d periods/run)",
				id, key, SweepPeriods),
			Columns: []string{
				"max workload",
				"MD% pred", "MD% nonpred",
				"CPU% pred", "CPU% nonpred",
				"Net% pred", "Net% nonpred",
				"replicas pred", "replicas nonpred",
			},
		}
		if ci {
			t.Columns = []string{
				"max workload",
				"MD% pred", "±95", "MD% nonpred", "±95",
				"CPU% pred", "±95", "CPU% nonpred", "±95",
				"Net% pred", "±95", "Net% nonpred", "±95",
				"replicas pred", "±95", "replicas nonpred", "±95",
			}
			t.Notes = append(t.Notes, ciNote(ctx.seeds()))
		}
		var md, cpu, net, reps [2][]float64
		for _, p := range points {
			a, b := pred[p].Metrics, nonpred[p].Metrics
			if ci {
				ag := metrics.AggregateRuns(pred[p].Reps)
				bg := metrics.AggregateRuns(nonpred[p].Reps)
				t.AddRow(p,
					ag.MissedPct.Mean, ag.MissedPct.CI, bg.MissedPct.Mean, bg.MissedPct.CI,
					ag.CPUUtilPct.Mean, ag.CPUUtilPct.CI, bg.CPUUtilPct.Mean, bg.CPUUtilPct.CI,
					ag.NetUtilPct.Mean, ag.NetUtilPct.CI, bg.NetUtilPct.Mean, bg.NetUtilPct.CI,
					ag.MeanReplicas.Mean, ag.MeanReplicas.CI, bg.MeanReplicas.Mean, bg.MeanReplicas.CI,
				)
				md[0] = append(md[0], ag.MissedPct.Mean)
				md[1] = append(md[1], bg.MissedPct.Mean)
				cpu[0] = append(cpu[0], ag.CPUUtilPct.Mean)
				cpu[1] = append(cpu[1], bg.CPUUtilPct.Mean)
				net[0] = append(net[0], ag.NetUtilPct.Mean)
				net[1] = append(net[1], bg.NetUtilPct.Mean)
				reps[0] = append(reps[0], ag.MeanReplicas.Mean)
				reps[1] = append(reps[1], bg.MeanReplicas.Mean)
				continue
			}
			t.AddRow(p,
				a.MissedPct(), b.MissedPct(),
				a.CPUUtilPct(), b.CPUUtilPct(),
				a.NetUtilPct(), b.NetUtilPct(),
				a.MeanReplicas, b.MeanReplicas,
			)
			md[0] = append(md[0], a.MissedPct())
			md[1] = append(md[1], b.MissedPct())
			cpu[0] = append(cpu[0], a.CPUUtilPct())
			cpu[1] = append(cpu[1], b.CPUUtilPct())
			net[0] = append(net[0], a.NetUtilPct())
			net[1] = append(net[1], b.NetUtilPct())
			reps[0] = append(reps[0], a.MeanReplicas)
			reps[1] = append(reps[1], b.MeanReplicas)
		}
		charts := []*ascii.Chart{
			sweepChart(id+"(a) missed deadlines %", key, points, md),
			sweepChart(id+"(b) CPU utilization %", key, points, cpu),
			sweepChart(id+"(c) network utilization %", key, points, net),
			sweepChart(id+"(d) mean subtask replicas", key, points, reps),
		}
		return Output{ID: id, Tables: []*Table{t}, Charts: charts}, nil
	}
}

// sweepChart plots predictive vs non-predictive series over the sweep.
func sweepChart(title, pattern string, points []int, series [2][]float64) *ascii.Chart {
	return &ascii.Chart{
		Title:   title + " — " + pattern,
		XLabel:  "max workload (1 unit = 500 tracks)",
		XValues: points,
		Height:  12,
		Series: []ascii.Series{
			{Name: "predictive", Points: series[0]},
			{Name: "non-predictive", Points: series[1]},
		},
	}
}

// combinedTable builds a combined-metric table for one sweep, shared by
// Figure 10 and both halves of Figure 13; with replication it renders
// mean ± 95% CI and decides the winner on the means.
func combinedTable(title string, results []api.SweepPoint, seeds int) (*Table, []int, [2][]float64) {
	ci := seeds > 1
	points, pred, nonpred := byPoint(results)
	t := &Table{
		Title:   title,
		Columns: []string{"max workload", "C pred", "C nonpred", "winner"},
	}
	if ci {
		t.Columns = []string{"max workload", "C pred", "±95", "C nonpred", "±95", "winner"}
		t.Notes = append(t.Notes, ciNote(seeds))
	}
	var cs [2][]float64
	for _, p := range points {
		if ci {
			ag := metrics.AggregateRuns(pred[p].Reps)
			bg := metrics.AggregateRuns(nonpred[p].Reps)
			t.AddRow(p, ag.Combined.Mean, ag.Combined.CI, bg.Combined.Mean, bg.Combined.CI,
				winner(ag.Combined.Mean, bg.Combined.Mean))
			cs[0] = append(cs[0], ag.Combined.Mean)
			cs[1] = append(cs[1], bg.Combined.Mean)
			continue
		}
		cp, cn := pred[p].Metrics.Combined(), nonpred[p].Metrics.Combined()
		t.AddRow(p, cp, cn, winner(cp, cn))
		cs[0] = append(cs[0], cp)
		cs[1] = append(cs[1], cn)
	}
	return t, points, cs
}

// figCombinedSweep reproduces Figure 10.
func figCombinedSweep(id, key string, factory PatternFactory) func(Context) (Output, error) {
	return func(ctx Context) (Output, error) {
		results, err := Sweep(context.Background(), ctx.sweepPoints(), factory, ctx.Parallelism, ctx.seeds())
		if err != nil {
			return Output{}, err
		}
		t, points, cs := combinedTable(
			fmt.Sprintf("%s — combined performance metric C, %s pattern (smaller is better)", id, key),
			results, ctx.seeds())
		chart := sweepChart(id+" combined performance metric C", key, points, cs)
		return Output{ID: id, Tables: []*Table{t}, Charts: []*ascii.Chart{chart}}, nil
	}
}

func winner(predC, nonpredC float64) string {
	// Differences below half a point are run-to-run noise, not a result.
	const tie = 0.5
	switch {
	case predC < nonpredC-tie:
		return "predictive"
	case nonpredC < predC-tie:
		return "non-predictive"
	default:
		return "tie"
	}
}

func runFig13(ctx Context) (Output, error) {
	var tables []*Table
	var charts []*ascii.Chart
	for _, part := range []struct {
		label, key string
		factory    PatternFactory
	}{
		{"fig13(a) — increasing ramp", "increasing", IncreasingFactory},
		{"fig13(b) — decreasing ramp", "decreasing", DecreasingFactory},
	} {
		results, err := Sweep(context.Background(), ctx.sweepPoints(), part.factory, ctx.Parallelism, ctx.seeds())
		if err != nil {
			return Output{}, err
		}
		t, points, cs := combinedTable(part.label+" — combined performance metric C", results, ctx.seeds())
		tables = append(tables, t)
		charts = append(charts, sweepChart(part.label+" combined metric C", part.key, points, cs))
	}
	return Output{ID: "fig13", Tables: tables, Charts: charts}, nil
}

package main

// e2eMetric is one end-to-end metric of the untraced run. Every
// workload reports every one of them, so each has a definition per
// workload; README.md maps them onto the per-workload names the printed
// report also uses (suite_s, events_per_s, goodput_per_s, ...). Their
// regression bounds live in BENCHMARK.json.
type e2eMetric struct {
	name, unit, better string
	meaning            map[string]string
}

var e2eMetrics = []e2eMetric{
	{"work_per_s", "1/s", "higher", map[string]string{
		"paper-suite":    "median over passes of passes per wall second = 1/suite_s",
		"big-topology":   "median over runs of engine events per wall second = events_per_s",
		"service":        "median over rounds of heavy-rate jobs done within the latency limit per second = goodput_per_s",
		"session-fanout": "median over sessions of delivered frame×subscriber updates per wall second",
	}},
	{"latency_ms", "ms", "lower", map[string]string{
		"paper-suite":    "median over passes of the wall time of one pass = 1000 × suite_s",
		"big-topology":   "median over runs of the wall time of one run",
		"service":        "best round's heavy-rate job latency p50, from due time to observed completion",
		"session-fanout": "best session's update lag p50, from the frame's due time to its receipt",
	}},
	{"work_per_cpu_s", "1/s", "higher", map[string]string{
		"paper-suite":    "median over passes of passes per process CPU second",
		"big-topology":   "median over runs of engine events per process CPU second",
		"service":        "median over rounds of jobs done per process CPU second",
		"session-fanout": "median over sessions of delivered updates per process CPU second = updates_per_cpu_s",
	}},
	{"setup_s", "s", "lower", map[string]string{
		"paper-suite":    "fresh process start to models profiled, median of 21 spread over the run",
		"big-topology":   "fresh process start to models profiled and topology built, median of 21 spread over the run",
		"service":        "fresh process start to models profiled and durable server listening, median of 21 spread over the run",
		"session-fanout": "fresh process start to models profiled and server built, median of 21 spread over the run",
	}},
	{"peak_rss_mb", "MB", "lower", map[string]string{
		"paper-suite":    "peak resident memory of the process",
		"big-topology":   "peak resident memory of the process",
		"service":        "peak resident memory of the process",
		"session-fanout": "peak resident memory of the process",
	}},
}

// layerMetric is one per-layer metric of the traced run, with the
// end-to-end metric it should move ("heavy" marks the workload where the
// layer does most of its work, "flat" where the metric must not move).
type layerMetric struct {
	name, unit, better, moves string
}

var layerMetrics = []layerMetric{
	{"sim.events", "count", "lower", "events_per_s (heavy: big-topology); flat on session-fanout"},
	{"sim.ns_per_event", "ns", "lower", "events_per_s (heavy: big-topology); suite_s"},
	{"sim.cpu_share", "%", "lower", "events_per_s (heavy: big-topology); suite_s; flat on session-fanout"},
	{"cpu.cpu_share", "%", "lower", "suite_s, events_per_s"},
	{"network.cpu_share", "%", "lower", "suite_s, events_per_s"},
	{"manager.replications", "count", "lower", "suite_s (heavy: paper-suite); flat on service"},
	{"manager.shutdowns", "count", "lower", "suite_s (heavy: paper-suite); flat on service"},
	{"manager.alloc_failures", "count", "lower", "suite_s (heavy: paper-suite); flat on service"},
	{"monitor.cpu_share", "%", "lower", "suite_s (heavy: paper-suite); flat on service"},
	{"manager.cpu_share", "%", "lower", "suite_s (heavy: paper-suite); flat on service"},
	{"policy.cpu_share", "%", "lower", "suite_s (heavy: paper-suite); flat on service"},
	{"regress.cpu_share", "%", "lower", "suite_s (heavy: paper-suite); flat on service"},
	{"core.run_ms_p50", "ms", "lower", "events_per_s, suite_s"},
	{"core.run_ms_p99", "ms", "lower", "events_per_s, suite_s"},
	{"core.cpu_share", "%", "lower", "events_per_s, suite_s"},
	{"experiment.cells_requested", "count", "lower", "suite_s (heavy: paper-suite); job_p99_ms on service; flat on big-topology"},
	{"experiment.cells_simulated", "count", "lower", "suite_s (heavy: paper-suite); job_p99_ms on service; flat on big-topology"},
	{"experiment.dedup_ratio", "ratio", "higher", "suite_s (heavy: paper-suite); job_p99_ms on service; flat on big-topology"},
	{"experiment.cell_wait_ms_p99", "ms", "lower", "suite_s (heavy: paper-suite); job_p99_ms on service; flat on big-topology"},
	{"experiment.cell_run_ms_p50", "ms", "lower", "suite_s (heavy: paper-suite); job_p99_ms on service; flat on big-topology"},
	{"experiment.workers_busy_pct", "%", "higher", "suite_s (heavy: paper-suite); flat on big-topology"},
	{"experiment.render_ms", "ms", "lower", "suite_s (heavy: paper-suite); flat on big-topology"},
	{"experiment.cpu_share", "%", "lower", "suite_s (heavy: paper-suite); job_p99_ms on service; flat on big-topology"},
	{"setup.models_ms", "ms", "lower", "setup_s"},
	{"setup.server_ms", "ms", "lower", "setup_s"},
	{"setup.topology_ms", "ms", "lower", "setup_s"},
	{"server.submit_ms_p50", "ms", "lower", "job_p50_ms, goodput_per_s (heavy: service); flat on paper-suite"},
	{"server.submit_ms_p99", "ms", "lower", "job_p99_ms, goodput_per_s (heavy: service); flat on paper-suite"},
	{"server.observe_ms_p50", "ms", "lower", "job_p50_ms (heavy: service); flat on paper-suite"},
	{"server.cell_wait_ms_p99", "ms", "lower", "job_p99_ms (heavy: service); flat on paper-suite"},
	{"server.rejected", "count", "lower", "failed_pct, goodput_per_s (heavy: service); flat on paper-suite"},
	{"server.cpu_share", "%", "lower", "job_p50_ms, job_p99_ms, goodput_per_s (heavy: service); flat on paper-suite"},
	{"api.cpu_share", "%", "lower", "updates_per_cpu_s (heavy: session-fanout); job_p50_ms"},
	{"json.cpu_share", "%", "lower", "updates_per_cpu_s (heavy: session-fanout); job_p50_ms"},
	{"session.frames", "count", "higher", "update_lag_p99_ms, updates_per_cpu_s (heavy: session-fanout); flat on service"},
	{"session.deliveries", "count", "higher", "updates_per_cpu_s, evicted_pct (heavy: session-fanout); flat on service"},
	{"session.evictions", "count", "lower", "evicted_pct (heavy: session-fanout); flat on service"},
	{"session.fanout_spread_ms_p99", "ms", "lower", "update_lag_p99_ms (heavy: session-fanout); flat on service"},
	{"session.cpu_share", "%", "lower", "updates_per_cpu_s, update_lag_p99_ms (heavy: session-fanout); flat on service"},
	{"runtime.gc_cpu_share", "%", "lower", "every workload"},
	{"runtime.sched_cpu_share", "%", "lower", "every workload; a high share flags a load that measures the scheduler"},
	{"runtime.allocs_per_op", "count", "lower", "every workload"},
	{"runtime.alloc_bytes_per_op", "B", "lower", "every workload"},
	{"host.cpu_busy_pct", "%", "lower", "every workload"},
	{"service.gen_late_ms_p99", "ms", "lower", "job_p99_ms (heavy: service): open-loop generator lateness"},
	{"trace.overhead", "ms", "lower", "none: traced minus untraced median of the workload's headline figure"},
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// The big-topology shape: 8 network segments (lanes) of 8 processors,
// with six tasks per segment from two period classes, the Table 1 period
// and a half-period class at twice the rate. A deep event heap and the
// lane barrier dominate it.
const (
	btLanes   = 8
	btPeriods = 256
	btTasks   = 6 * btLanes
)

// bigTopology is one predictive run of that shape, driven by nproc lane
// workers, with cfg.Seed taken from the workload seed.
type bigTopology struct {
	cfg       core.Config
	setups    []core.TaskSetup
	refEvents uint64
	refDigest string
	last      metrics.RunMetrics
	runs      uint64
}

func btPattern(i, periods int) workload.Pattern {
	switch i % 3 {
	case 0:
		return workload.NewStep(500, 6000, periods, periods/2)
	case 1:
		return workload.NewTriangular(500, 5000, periods, 4)
	default:
		return workload.NewConstant(2500, periods)
	}
}

func (t *bigTopology) setup(b *bench) error {
	id := b.tr.begin(0, -1, "setup.models")
	_, err := experiment.DefaultModels()
	b.tr.end(id)
	if err != nil {
		return err
	}
	id = b.tr.begin(0, -1, "setup.topology")
	defer b.tr.end(id)
	t.setups = make([]core.TaskSetup, btTasks)
	for i := range t.setups {
		// With nil Homes task i lands on lane i mod lanes, so every lane
		// gets three tasks of each period class.
		fast := i >= btTasks/2
		periods := btPeriods
		if fast {
			periods *= 2
		}
		s, err := experiment.BenchmarkSetup(btPattern(i, periods))
		if err != nil {
			return err
		}
		s.Spec.Name = fmt.Sprintf("BT%02d", i)
		if fast {
			s.Spec.Period /= 2
			s.Spec.Deadline /= 2
		}
		t.setups[i] = s
	}
	t.cfg = core.DefaultConfig()
	t.cfg.NumNodes = btLanes * 8
	t.cfg.Lanes = btLanes
	t.cfg.Parallel = b.nproc
	t.cfg.Seed = b.seed
	return t.cfg.Validate()
}

// prepare runs the same seed once with a single lane worker: parallel
// lane runs are byte-identical to serial ones (DESIGN.md §9), so its
// event count and metrics digest are the reference every timed run must
// reproduce.
func (t *bigTopology) prepare(b *bench) error {
	serial := t.cfg
	serial.Parallel = 1
	res, err := core.Run(serial, core.Predictive, t.setups)
	if err != nil {
		return err
	}
	t.refEvents = res.EventsFired
	t.refDigest, err = digest(res.Metrics)
	return err
}

// digest content-addresses a run's metrics.
func digest(m metrics.RunMetrics) (string, error) {
	data, err := json.Marshal(m)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

func (t *bigTopology) round(b *bench, tr *tracer) (roundOut, error) {
	t.runs++
	w0, c0 := nowCPU()
	sp := tr.begin(t.runs, -1, "core.run")
	res, err := core.Run(t.cfg, core.Predictive, t.setups)
	tr.end(sp)
	wall, cpu := sinceCPU(w0, c0)
	b.rep.op(err)
	if err != nil {
		return roundOut{value: ms(wall), ops: 1}, nil
	}
	t.last = res.Metrics
	if res.EventsFired != t.refEvents {
		b.rep.checkFailed("big-topology: %d events fired, serial reference fired %d", res.EventsFired, t.refEvents)
	} else if d, err := digest(res.Metrics); err != nil || d != t.refDigest {
		b.rep.checkFailed("big-topology: metrics digest %s differs from the serial reference %s", d, t.refDigest)
	}
	events := float64(res.EventsFired)
	return roundOut{value: ms(wall), perS: events / wall.Seconds(), perCPU: events / cpu.Seconds(), ops: 1}, nil
}

func (t *bigTopology) report(b *bench, rep *report) {
	rep.name("events_per_s", "1/s", rep.e2e["work_per_s"], rep.rounds, fmt.Sprintf("median over runs of %d events ÷ run wall time", t.refEvents))
	if !b.trace {
		return
	}
	rep.layers["sim.events"] = float64(t.refEvents)
	runs := b.tr.durations("core.run")
	p50, _ := runs.pct(50)
	rep.layers["sim.ns_per_event"] = p50 * 1e6 / float64(t.refEvents)
	rep.layers["core.run_ms_p50"] = p50
	rep.layers["core.run_ms_p99"], _ = runs.pct(99)
	rep.layers["manager.replications"] = float64(t.last.Replications)
	rep.layers["manager.shutdowns"] = float64(t.last.Shutdowns)
	rep.layers["manager.alloc_failures"] = float64(t.last.AllocFailures)
	rep.layers["experiment.cells_requested"] = 0
	rep.layers["experiment.cells_simulated"] = 0
}

func (t *bigTopology) close() {}

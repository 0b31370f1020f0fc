package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/experiment"
)

// committedSeeds are the replication counts the committed results/ were
// generated at (EXPERIMENTS.md); every other experiment runs its single
// pinned seed. Running each experiment at its committed setting is what
// lets every CSV of a pass be checked byte for byte.
var committedSeeds = map[string]int{"ext-chaos": 5, "ext-tournament": 3}

// suite is the paper-suite workload: every registered experiment at full
// size, pass after pass, with a cold scheduler memo, no disk cache and a
// sweep width of nproc — what a reader runs to reproduce the paper. The
// experiments carry their own seeds, so the workload seed does not apply.
type suite struct {
	resultsDir string
	refs       map[string][]byte // committed CSV bytes by file stem
	unchecked  map[string]bool   // CSVs a pass renders that results/ does not hold
	cells      *cellObserver
	acc        [2]suiteAcc // [0] untraced rounds, [1] traced rounds
	passes     uint64
}

type suiteAcc struct {
	render               dist // ms of Render+WriteCSV per pass
	wall                 time.Duration
	requested, simulated uint64
	rounds               int
}

func (s *suite) setup(b *bench) error {
	id := b.tr.begin(0, -1, "setup.models")
	_, err := experiment.DefaultModels()
	b.tr.end(id)
	return err
}

func (s *suite) prepare(b *bench) error {
	if s.resultsDir == "" {
		s.resultsDir = "results"
	}
	files, err := filepath.Glob(filepath.Join(s.resultsDir, "*.csv"))
	if err != nil || len(files) == 0 {
		return fmt.Errorf("no committed CSVs under %s/: run from the repository root", s.resultsDir)
	}
	s.refs = make(map[string][]byte, len(files))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		s.refs[strings.TrimSuffix(filepath.Base(f), ".csv")] = data
	}
	s.unchecked = map[string]bool{}
	s.cells = &cellObserver{}
	return nil
}

// rendered is one experiment's outcome within a pass.
type rendered struct {
	id   string
	err  error
	csvs map[string][]byte
}

func (s *suite) round(b *bench, tr *tracer) (roundOut, error) {
	experiment.ResetSweepCache()
	acc := &s.acc[0]
	if tr != nil {
		acc = &s.acc[1]
		experiment.SetWallObserver(s.cells)
		defer experiment.SetWallObserver(nil)
	}
	s.passes++
	op := s.passes
	all := experiment.All()
	outs := make([]rendered, 0, len(all))
	var renderTime time.Duration
	st0 := experiment.SchedulerStats()

	w0, c0 := time.Now(), cpuTime()
	root := tr.begin(op, -1, "suite.pass")
	for _, e := range all {
		r := rendered{id: e.ID, csvs: map[string][]byte{}}
		sp := tr.begin(op, root, "experiment.run")
		out, err := e.Run(experiment.Context{Parallelism: b.nproc, Seeds: committedSeeds[e.ID]})
		tr.end(sp)
		if err == nil {
			r0 := time.Now()
			sp = tr.begin(op, root, "experiment.render")
			err = out.Render(io.Discard)
			for i, t := range out.Tables {
				name := e.ID
				if len(out.Tables) > 1 {
					name = fmt.Sprintf("%s-%d", e.ID, i+1)
				}
				var buf bytes.Buffer
				if werr := t.WriteCSV(&buf); werr != nil && err == nil {
					err = werr
				}
				r.csvs[name] = buf.Bytes()
			}
			tr.end(sp)
			renderTime += time.Since(r0)
		}
		r.err = err
		outs = append(outs, r)
	}
	tr.end(root)
	wall, cpu := time.Since(w0), cpuTime()-c0
	st1 := experiment.SchedulerStats()

	simulated := st1.Simulated - st0.Simulated
	acc.render.add(ms(renderTime))
	acc.wall += wall
	acc.requested += st1.Requested - st0.Requested
	acc.simulated += simulated
	acc.rounds++
	s.check(b.rep, outs)
	// The unit of work is one whole pass, not the simulations it ran:
	// how many cells the scheduler's dedup leaves to simulate is part of
	// what the pass costs.
	return roundOut{
		value:  ms(wall),
		perS:   1 / wall.Seconds(),
		perCPU: 1 / cpu.Seconds(),
		ops:    len(all),
	}, nil
}

// check compares every CSV of a pass with its committed counterpart.
func (s *suite) check(rep *report, outs []rendered) {
	seen := map[string]bool{}
	for _, r := range outs {
		rep.op(r.err)
		for name, got := range r.csvs {
			want, ok := s.refs[name]
			if !ok {
				s.unchecked[name] = true
				continue
			}
			seen[name] = true
			if !bytes.Equal(got, want) {
				rep.checkFailed("paper-suite: %s.csv differs from %s/%s.csv", name, s.resultsDir, name)
			}
		}
	}
	for name := range s.refs {
		if !seen[name] {
			rep.checkFailed("paper-suite: no experiment rendered committed %s.csv", name)
		}
	}
}

func (s *suite) report(b *bench, rep *report) {
	rep.name("suite_s", "s", rep.headline/1000, rep.rounds, "median wall time of one full pass")
	if len(s.unchecked) > 0 {
		var names []string
		for k := range s.unchecked {
			names = append(names, k)
		}
		sort.Strings(names)
		rep.notes = append(rep.notes, "rendered without a committed CSV to check against: "+strings.Join(names, ", "))
	}
	if !b.trace {
		return
	}
	t := &s.acc[1]
	rep.layers["experiment.cells_requested"] = float64(t.requested) / float64(t.rounds)
	rep.layers["experiment.cells_simulated"] = float64(t.simulated) / float64(t.rounds)
	rep.layers["experiment.dedup_ratio"] = dedupRatio(t.requested, t.simulated)
	s.cells.mu.Lock()
	rep.layers["experiment.cell_wait_ms_p99"], _ = s.cells.wait.pct(99)
	rep.layers["experiment.cell_run_ms_p50"], _ = s.cells.run.pct(50)
	rep.layers["experiment.workers_busy_pct"] = share(s.cells.run.sum(), ms(t.wall)*float64(b.nproc))
	s.cells.mu.Unlock()
	rep.layers["experiment.render_ms"], _ = t.render.pct(50)
	const hidden = "experiment outputs are rendered tables; per-run results are not exposed through a public call"
	for _, m := range []string{"sim.events", "sim.ns_per_event", "manager.replications", "manager.shutdowns", "manager.alloc_failures"} {
		rep.why[m] = hidden
	}
	rep.why["core.run_ms_p50"] = "the suite reaches core.Run only through the scheduler: see experiment.cell_run_ms_p50"
	rep.why["core.run_ms_p99"] = rep.why["core.run_ms_p50"]
}

func (s *suite) close() {}

// cellObserver is the scheduler's wall-clock hook during traced rounds.
type cellObserver struct {
	mu        sync.Mutex
	wait, run dist // ms
}

func (o *cellObserver) CellQueued() {}

func (o *cellObserver) CellStarted(wait time.Duration) {
	o.mu.Lock()
	o.wait.add(ms(wait))
	o.mu.Unlock()
}

func (o *cellObserver) CellFinished(outcome string, run time.Duration) {
	if outcome != "simulated" {
		return
	}
	o.mu.Lock()
	o.run.add(ms(run))
	o.mu.Unlock()
}

func (o *cellObserver) DiskHit(time.Duration) {}

package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentilesCarryTheirSampleCount(t *testing.T) {
	d := &dist{}
	if v, n := d.pct(50); v != 0 || n != 0 {
		t.Fatalf("empty dist: got %v over %d samples, want 0 over 0", v, n)
	}
	for i := 100; i >= 1; i-- { // unsorted on purpose
		d.add(float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 50.5}, {99, 99.01}, {100, 100}} {
		v, n := d.pct(c.p)
		if !near(v, c.want) || n != 100 {
			t.Errorf("p%v = %v over %d samples, want %v over 100", c.p, v, n, c.want)
		}
	}
	one := &dist{}
	one.add(7)
	if v, n := one.pct(99); v != 7 || n != 1 {
		t.Errorf("single sample: p99 = %v over %d, want 7 over 1", v, n)
	}
}

func TestTailNeedsTenSamplesBeyondIt(t *testing.T) {
	if !tailResolved(99, 1000) || tailResolved(99, 999) {
		t.Error("p99 needs exactly 1000 samples for ten beyond it")
	}
	if !tailResolved(50, 20) || tailResolved(50, 19) {
		t.Error("p50 needs 20 samples for ten beyond it")
	}
	if tailNote(99, 1000) != "" || !strings.Contains(tailNote(99, 40), "fewer than 10") {
		t.Error("tailNote must flag an unresolved tail and only that")
	}
}

// A stall delays every later request of an open loop: timed from its due
// time, each request that queued behind the stall shows the wait.
func TestLatencyIsTimedFromDueTime(t *testing.T) {
	start := time.Unix(0, 0)
	// Five requests offered at 100/s are due at 0, 10, ..., 40ms. The
	// server stalls until t = 50ms, then answers all five at once.
	answered := start.Add(50 * time.Millisecond)
	d := &dist{}
	for i := 0; i < 5; i++ {
		d.add(ms(answered.Sub(dueAt(start, i, 100))))
	}
	if got := d.vals; !near(got[0], 50) || !near(got[4], 10) {
		t.Fatalf("latencies from due time = %v, want 50 down to 10 ms", got)
	}
	if p50, n := d.pct(50); !near(p50, 30) || n != 5 {
		t.Errorf("p50 = %v over %d, want 30 over 5", p50, n)
	}
	if got := dueAt(start, 3, 300); got.Sub(start) != 10*time.Millisecond {
		t.Errorf("request 3 at 300/s due at %v, want 10ms", got.Sub(start))
	}
}

// Session frame k is due (k-1) pacing gaps after the session was created;
// a subscriber's join snapshot and the last two frames are not paced.
func TestFrameDueOnPacingSchedule(t *testing.T) {
	start := time.Unix(0, 0)
	gap := time.Second / fanRateHz
	const first, last = 3, 12
	for seq := uint64(1); seq <= last; seq++ {
		due, paced := frameDue(start, seq, first, last)
		wantPaced := seq != first && seq <= last-2
		if paced != wantPaced {
			t.Errorf("frame %d: paced = %v, want %v", seq, paced, wantPaced)
			continue
		}
		if paced && due.Sub(start) != time.Duration(seq-1)*gap {
			t.Errorf("frame %d due at %v, want %v", seq, due.Sub(start), time.Duration(seq-1)*gap)
		}
	}
}

func TestRatiosUseTheirBase(t *testing.T) {
	// dedup_ratio: base is cells requested.
	if got, want := dedupRatio(566, 547), 1-547.0/566.0; !near(got, want) {
		t.Errorf("dedupRatio(566, 547) = %v, want %v", got, want)
	}
	if dedupRatio(0, 0) != 0 {
		t.Error("dedupRatio with no requests must be 0")
	}
	if dedupRatio(10, 10) != 0 {
		t.Error("every requested cell simulated means no dedup")
	}
	// evicted_pct: base is intended deliveries (frames × subscribers).
	if got := evictedPct(3, 600); !near(got, 0.5) {
		t.Errorf("evictedPct(3, 600) = %v, want 0.5", got)
	}
	if evictedPct(0, 0) != 0 {
		t.Error("evictedPct with nothing intended must be 0")
	}
	if got := share(1, 4); !near(got, 25) {
		t.Errorf("share(1, 4) = %v, want 25", got)
	}
}

func TestPrometheusScrape(t *testing.T) {
	text := `# TYPE x counter
rmserved_rejected_total{reason="queue_full"} 3
rmserved_rejected_total{reason="draining"} 2
obs_sched_cell_wait_seconds_bucket{le="0.001"} 90
obs_sched_cell_wait_seconds_bucket{le="0.01"} 99
obs_sched_cell_wait_seconds_bucket{le="0.1"} 100
obs_sched_cell_wait_seconds_bucket{le="+Inf"} 100
obs_sched_cell_wait_seconds_count 100
`
	p, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.sum("rmserved_rejected_total"); got != 5 {
		t.Errorf("sum = %v, want 5", got)
	}
	if got := p.quantile("obs_sched_cell_wait_seconds", 0.5); got != 0.001 {
		t.Errorf("p50 bucket bound = %v, want 0.001", got)
	}
	if got := p.quantile("obs_sched_cell_wait_seconds", 0.99); got != 0.01 {
		t.Errorf("p99 bucket bound = %v, want 0.01", got)
	}
	if got := p.quantile("absent_seconds", 0.5); got != 0 {
		t.Errorf("absent histogram quantile = %v, want 0", got)
	}
}

// setup_s is a median over set-ups spread across the whole timed window:
// one before the first round, the last at its end.
func TestSetupsSpreadOverTheWindow(t *testing.T) {
	if got := setupsDue(0); got != 1 {
		t.Errorf("set-ups due before the first round = %d, want 1", got)
	}
	if got := setupsDue(0.5); got != 1+(setupRuns-1)/2 {
		t.Errorf("set-ups due halfway = %d, want %d", got, 1+(setupRuns-1)/2)
	}
	if got := setupsDue(1.7); got != setupRuns {
		t.Errorf("set-ups due past the deadline = %d, want %d", got, setupRuns)
	}
}

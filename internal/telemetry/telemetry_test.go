package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestBucketIndexBoundsContiguous(t *testing.T) {
	// Every bucket's (lo, hi] range must contain exactly the values that
	// map to it, and adjacent buckets must tile the int64 range.
	for idx := 0; idx < nBuckets; idx++ {
		lo, hi := bucketBounds(idx)
		if hi <= lo {
			t.Fatalf("bucket %d: empty range (%d, %d]", idx, lo, hi)
		}
		if got := bucketIndex(hi); got != idx {
			t.Fatalf("bucket %d: hi %d maps to bucket %d", idx, hi, got)
		}
		if lo >= 0 {
			if got := bucketIndex(lo + 1); got != idx {
				t.Fatalf("bucket %d: lo+1 %d maps to bucket %d", idx, lo+1, got)
			}
		}
		if idx > 0 {
			_, prevHi := bucketBounds(idx - 1)
			if prevHi != lo {
				t.Fatalf("gap between bucket %d (hi %d) and %d (lo %d)", idx-1, prevHi, idx, lo)
			}
		}
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for _, v := range []sim.Time{10, 20, 30, 40} {
		h.Record(v * sim.Millisecond)
	}
	if h.Count() != 4 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Min() != 10*sim.Millisecond || h.Max() != 40*sim.Millisecond {
		t.Errorf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	if h.Mean() != 25*sim.Millisecond {
		t.Errorf("Mean = %v", h.Mean())
	}
	if h.Sum() != 100*sim.Millisecond {
		t.Errorf("Sum = %v", h.Sum())
	}
}

func TestHistogramNegativeClampsToZero(t *testing.T) {
	var h Histogram
	h.Record(-5 * sim.Millisecond)
	if h.Count() != 1 || h.Min() != 0 || h.Max() != 0 {
		t.Errorf("negative record: count=%d min=%v max=%v", h.Count(), h.Min(), h.Max())
	}
}

func TestHistogramQuantileRelativeError(t *testing.T) {
	// The log-linear layout bounds relative quantile error at 1/halfSub.
	var h Histogram
	rng := rand.New(rand.NewPCG(3, 5))
	var xs []float64
	for i := 0; i < 50000; i++ {
		v := sim.Time(rng.Int64N(int64(200*sim.Millisecond))) + sim.Microsecond
		h.Record(v)
		xs = append(xs, float64(v))
	}
	for _, p := range []float64{50, 90, 95, 99} {
		got := float64(h.Quantile(p))
		// Exact percentile via sort-free selection is overkill; a second
		// histogram pass with fine linear buckets gives a tight reference.
		want := exactPercentile(xs, p)
		if rel := math.Abs(got-want) / want; rel > 2.0/halfSub {
			t.Errorf("p%.0f: histogram %v vs exact %v (rel err %.4f)", p, got, want, rel)
		}
	}
	if float64(h.Quantile(0)) < float64min(xs) || float64(h.Quantile(100)) > float64max(xs) {
		t.Error("quantiles escape the observed envelope")
	}
}

func exactPercentile(xs []float64, p float64) float64 {
	cp := append([]float64(nil), xs...)
	// insertion-free: use sort via stdlib
	quicksort(cp, 0, len(cp)-1)
	rank := p / 100 * float64(len(cp)-1)
	lo := int(rank)
	if lo >= len(cp)-1 {
		return cp[len(cp)-1]
	}
	frac := rank - float64(lo)
	return cp[lo] + frac*(cp[lo+1]-cp[lo])
}

func quicksort(xs []float64, lo, hi int) {
	if lo >= hi {
		return
	}
	p := xs[(lo+hi)/2]
	i, j := lo, hi
	for i <= j {
		for xs[i] < p {
			i++
		}
		for xs[j] > p {
			j--
		}
		if i <= j {
			xs[i], xs[j] = xs[j], xs[i]
			i++
			j--
		}
	}
	quicksort(xs, lo, j)
	quicksort(xs, i, hi)
}

func float64min(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

func float64max(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func TestLinearHistogramClampsToRange(t *testing.T) {
	h := NewLinearHistogram(-1, 1, 200)
	h.Record(-5)  // clamps into the lowest bucket
	h.Record(0.5) // in range
	h.Record(3)   // clamps into the highest bucket
	if h.Count() != 3 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Min() != -5 || h.Max() != 3 {
		t.Errorf("Min/Max track raw values: %v/%v", h.Min(), h.Max())
	}
	bs := h.Buckets()
	if len(bs) != 3 {
		t.Fatalf("buckets = %d, want 3 occupied", len(bs))
	}
	if bs[0].Lo != -1 {
		t.Errorf("lowest occupied bucket starts at %v, want -1", bs[0].Lo)
	}
}

func TestLinearHistogramBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("inverted range did not panic")
		}
	}()
	NewLinearHistogram(1, -1, 10)
}

func TestRegistryGetOrCreateIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", Label{"task", "aaw"})
	b := r.Counter("x_total", Label{"task", "aaw"})
	c := r.Counter("x_total", Label{"task", "other"})
	if a != b {
		t.Error("same name+labels returned distinct counters")
	}
	if a == c {
		t.Error("different labels returned the same counter")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Error("same-name histograms distinct")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("same-name gauges distinct")
	}
	if r.Linear("l", 0, 1, 10) != r.Linear("l", 0, 1, 10) {
		t.Error("same-name linear histograms distinct")
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("rm_test_total", Label{"task", "aaw"}).Add(7)
	r.Gauge("rm_test_util").Set(0.25)
	h := r.Histogram("rm_test_latency")
	h.Record(10 * sim.Millisecond)
	h.Record(20 * sim.Millisecond)
	h.Record(500 * sim.Millisecond)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		`rm_test_total{task="aaw"} 7`,
		"rm_test_util 0.25",
		"rm_test_latency_count 3",
		`rm_test_latency_bucket{le="+Inf"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Bucket lines must be cumulative and in increasing-le order.
	var lastCum uint64
	var lastLe float64
	seen := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "rm_test_latency_bucket{le=\"") || strings.Contains(line, "+Inf") {
			continue
		}
		le, cum, err := parseBucketLine(line)
		if err != nil {
			t.Fatalf("unparseable bucket line %q: %v", line, err)
		}
		if le <= lastLe && seen > 0 {
			t.Errorf("le out of order: %v after %v", le, lastLe)
		}
		if cum < lastCum {
			t.Errorf("cumulative count decreased: %d after %d", cum, lastCum)
		}
		lastLe, lastCum = le, cum
		seen++
	}
	if seen == 0 {
		t.Error("no bucket lines found")
	}
}

// parseBucketLine parses `name{le="X"} N`.
func parseBucketLine(line string) (le float64, cum uint64, err error) {
	i := strings.Index(line, `le="`)
	j := strings.Index(line[i+4:], `"`)
	if le, err = strconv.ParseFloat(line[i+4:i+4+j], 64); err != nil {
		return 0, 0, err
	}
	fields := strings.Fields(line)
	cum, err = strconv.ParseUint(fields[len(fields)-1], 10, 64)
	return le, cum, err
}

func TestForecastTrackResidualsAndMAPE(t *testing.T) {
	tr := NewForecastTrack()
	// Over-prediction: pred 120ms vs obs 100ms → |resid| 20ms, 20% APE.
	tr.Predict(0, 120*sim.Millisecond)
	tr.Observe(0, 100*sim.Millisecond)
	// Under-prediction: pred 90ms vs obs 100ms → 10ms, 10% APE.
	tr.Predict(1, 90*sim.Millisecond)
	tr.Observe(1, 100*sim.Millisecond)
	// Unmatched observation is dropped.
	tr.Observe(7, 55*sim.Millisecond)

	if tr.Matched() != 2 {
		t.Errorf("Matched = %d, want 2", tr.Matched())
	}
	if got := tr.MAPE(); math.Abs(got-15) > 1e-9 {
		t.Errorf("MAPE = %v, want 15", got)
	}
	if got := tr.MeanErrorMS(); math.Abs(got-5) > 1e-9 {
		t.Errorf("MeanErrorMS = %v, want +5 (net over-prediction)", got)
	}
	s := tr.Snapshot()
	if s.Over != 1 || s.Under != 1 || s.PendingNow != 0 {
		t.Errorf("snapshot = %+v", s)
	}
	if s.AbsMaxMS != 20 {
		t.Errorf("AbsMaxMS = %v, want 20", s.AbsMaxMS)
	}
}

func TestForecastSetSortedSnapshot(t *testing.T) {
	f := NewForecastSet()
	f.Series("b", 1)
	f.Series("a", 2)
	f.Series("a", 0)
	snap := f.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("series = %d", len(snap))
	}
	if snap[0].Task != "a" || snap[0].Stage != 0 || snap[2].Task != "b" {
		t.Errorf("snapshot not sorted: %+v", snap)
	}
}

// TestNilRecorderSafe calls every exported method on a nil *Recorder:
// each must be a no-op, never a panic — this is the disabled state.
func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Error("nil recorder reports enabled")
	}
	r.RecordExec("a", 0, 0, 0, 10, 0, 1, 2)
	r.RecordJobWait(0, 5)
	r.RecordMessage("a", 1, 0, 0, 1, 100, 0, 1, 2)
	r.RecordStage("a", 0, 0, sim.Millisecond, sim.Second)
	r.RecordEndToEnd("a", 0, sim.Millisecond, sim.Second, false)
	r.RecordAdaptation(0, "a", 0, 0, "replicate", 1)
	r.RecordForecastEval("a", 0)
	r.SetProcUtil(0, 0.5)
	r.SetNetUtil(0.5)
	r.Predict("a", 0, 0, sim.Millisecond, sim.Millisecond)
	r.ObserveForecast("a", 0, 0, sim.Millisecond, sim.Millisecond)
	if r.Registry() != nil || r.Forecast() != nil || r.Spans() != nil || r.Instants() != nil {
		t.Error("nil recorder exposes non-nil subsystems")
	}
	if s := r.Snapshot(); s.Spans != 0 {
		t.Errorf("nil snapshot = %+v", s)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil WritePrometheus wrote %d bytes, err %v", buf.Len(), err)
	}
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Errorf("nil WriteChromeTrace: %v", err)
	}
}

func TestRecorderEndToEnd(t *testing.T) {
	r := New()
	// Period 0 of task "aaw": predict, execute, message, observe.
	r.Predict("aaw", 0, 0, 100*sim.Millisecond, 10*sim.Millisecond)
	r.RecordExec("aaw", 0, 0, 2, 50, 0, sim.Millisecond, 90*sim.Millisecond)
	r.RecordJobWait(2, sim.Millisecond)
	r.RecordMessage("aaw", 1, 0, 2, 3, 4096, 90*sim.Millisecond, 92*sim.Millisecond, 95*sim.Millisecond)
	r.RecordMessage("", -1, -1, 0, 1, 128, 0, sim.Millisecond, 2*sim.Millisecond)
	r.RecordStage("aaw", 0, 0, 90*sim.Millisecond, 200*sim.Millisecond)
	r.RecordEndToEnd("aaw", 0, 95*sim.Millisecond, sim.Second, false)
	r.ObserveForecast("aaw", 0, 0, 90*sim.Millisecond, 5*sim.Millisecond)
	r.RecordAdaptation(100*sim.Millisecond, "aaw", 0, 0, "replicate", 2)
	r.SetProcUtil(2, 0.4)
	r.SetNetUtil(0.1)

	snap := r.Snapshot()
	if len(snap.Stages) != 1 || snap.Stages[0].Task != "aaw" || snap.Stages[0].Stage != 0 {
		t.Fatalf("stages = %+v", snap.Stages)
	}
	st := snap.Stages[0]
	if st.Latency.Count != 1 || st.Latency.P50MS != 90 {
		t.Errorf("stage latency = %+v", st.Latency)
	}
	if st.JobLatency.Count != 1 {
		t.Errorf("job latency = %+v", st.JobLatency)
	}
	if st.Slack.Count != 1 || math.Abs(st.Slack.Mean-0.55) > 0.01 {
		t.Errorf("slack = %+v, want mean ≈ 0.55", st.Slack)
	}
	if len(snap.Tasks) != 1 || snap.Tasks[0].Instances != 1 || snap.Tasks[0].Missed != 0 {
		t.Errorf("tasks = %+v", snap.Tasks)
	}
	if snap.Network.WireMsgs != 2 || snap.Network.PayloadBytes != 4096+128 {
		t.Errorf("network = %+v", snap.Network)
	}
	if snap.Network.BufferDelay.Count != 2 {
		t.Errorf("buffer delay count = %d, want 2", snap.Network.BufferDelay.Count)
	}
	if len(snap.Forecast) != 1 {
		t.Fatalf("forecast series = %d", len(snap.Forecast))
	}
	fs := snap.Forecast[0]
	if fs.Exec.Matched != 1 || fs.Comm.Matched != 1 {
		t.Errorf("forecast matches = %+v", fs)
	}
	// exec: pred 100 obs 90 → ~11.1% APE; comm: pred 10 obs 5 → 100%.
	if math.Abs(fs.Exec.MAPEPct-100.0/9) > 0.01 {
		t.Errorf("exec MAPE = %v, want ≈11.11", fs.Exec.MAPEPct)
	}
	if snap.Counters[`rm_adaptations_total{kind="replicate"}`] != 1 {
		t.Errorf("adaptation counter missing: %v", snap.Counters)
	}
	if snap.Gauges[`rm_cpu_util{proc="2"}`] != 0.4 || snap.Gauges["rm_net_util"] != 0.1 {
		t.Errorf("gauges = %v", snap.Gauges)
	}
	if snap.Spans != 3 || snap.Instants != 1 {
		// 1 exec span + 2 message spans; RecordJobWait is metrics-only.
		t.Errorf("spans/instants = %d/%d, want 3/1", snap.Spans, snap.Instants)
	}
}

func TestPredictFinalStageSkipsComm(t *testing.T) {
	r := New()
	r.Predict("aaw", 2, 0, 50*sim.Millisecond, -1)
	r.ObserveForecast("aaw", 2, 0, 45*sim.Millisecond, -1)
	fs := r.Snapshot().Forecast[0]
	if fs.Exec.Matched != 1 || fs.Comm.Matched != 0 {
		t.Errorf("final stage: exec %d matches, comm %d — want 1, 0",
			fs.Exec.Matched, fs.Comm.Matched)
	}
}

func TestWriteChromeTraceValidAndLoadable(t *testing.T) {
	r := New()
	r.RecordExec("aaw", 0, 0, 2, 50, 0, sim.Millisecond, 90*sim.Millisecond)
	r.RecordMessage("aaw", 1, 0, 2, 3, 4096, 90*sim.Millisecond, 92*sim.Millisecond, 95*sim.Millisecond)
	r.RecordMessage("", -1, -1, 0, 1, 128, sim.Millisecond, sim.Millisecond, 2*sim.Millisecond)
	r.RecordAdaptation(100*sim.Millisecond, "aaw", 0, 0, "replicate", 2)

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			PID  int     `json:"pid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var exec, net, inst, meta int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			if e.PID == pidNetwork {
				net++
			} else {
				exec++
			}
		case "i":
			inst++
		case "M":
			meta++
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
		if e.TS < 0 {
			t.Errorf("negative timestamp in %q", e.Name)
		}
	}
	if exec != 1 {
		t.Errorf("exec slices = %d, want 1", exec)
	}
	// Task message: buffer slice + wire slice; sync message: wire only
	// (zero buffer delay is elided).
	if net != 3 {
		t.Errorf("network slices = %d, want 3", net)
	}
	if inst != 1 || meta == 0 {
		t.Errorf("instants = %d, metadata = %d", inst, meta)
	}
}

func TestWriteChromeTraceEmptyIsValid(t *testing.T) {
	var buf bytes.Buffer
	if err := New().WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace invalid: %v", err)
	}
	if _, ok := doc["traceEvents"].([]any); !ok {
		t.Errorf("traceEvents missing or not an array: %v", doc)
	}
}

func TestHTTPHandlerEndpoints(t *testing.T) {
	r := New()
	r.RecordEndToEnd("aaw", 0, 95*sim.Millisecond, sim.Second, false)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	for path, wantSub := range map[string]string{
		"/metrics":       "rm_e2e_latency_count",
		"/snapshot.json": `"tasks"`,
		"/trace.json":    "traceEvents",
		"/":              "/metrics",
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(buf.String(), wantSub) {
			t.Errorf("GET %s missing %q in:\n%s", path, wantSub, buf.String())
		}
	}
}

// BenchmarkNilRecorder measures the disabled-telemetry cost at a subtask
// completion site: one RecordExec call on a nil receiver. The acceptance
// bar is < 2 ns/op — a single predictable branch.
func BenchmarkNilRecorder(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.RecordExec("aaw", 0, i, 2, 50, 0, 1, 2)
	}
}

// BenchmarkEnabledRecordExec is the enabled-path cost for comparison.
func BenchmarkEnabledRecordExec(b *testing.B) {
	r := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(r.spans) == cap(r.spans) {
			r.spans = r.spans[:0] // reuse the pre-sized buffer instead of growing it with b.N
		}
		r.RecordExec("aaw", 0, i, 2, 50, 0, 1, 2)
	}
}

// TestEnabledHotPathDoesNotAllocate: with handles warm, recording is
// allocation-free. The 1000 runs append 1000 spans, which fit the
// recorder's pre-sized span buffer.
func TestEnabledHotPathDoesNotAllocate(t *testing.T) {
	r := New()
	r.RecordExec("aaw", 0, 0, 2, 50, 0, 1, 2) // warm the handle cache
	allocs := testing.AllocsPerRun(1000, func() {
		r.RecordExec("aaw", 0, 1, 2, 50, 0, 1, 2)
		r.RecordStage("aaw", 0, 1, sim.Millisecond, sim.Second)
		r.RecordJobWait(2, sim.Microsecond)
	})
	if allocs != 0 {
		t.Errorf("enabled hot path allocates %.1f per run, want 0", allocs)
	}
}

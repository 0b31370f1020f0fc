package api

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden JSON fixtures under testdata/")

// fixtureSeed keeps the RunRequest fixture deterministic.
var fixtureSeed = uint64(42)

// goldenDTOs instantiates one representative value of every v1 DTO. The
// fixtures under testdata/ pin their JSON encoding byte for byte: a
// change there is a wire-format change and must follow the versioning
// policy in the package comment (additive keeps SchemaVersion, anything
// else bumps it).
func goldenDTOs() map[string]any {
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.Faults = []Fault{{Node: 2, AtNS: 10_200_000_000, DurationNS: 15_000_000_000}}
	cfg.Network.Partitions = []Window{{StartNS: 1_000_000_000, EndNS: 2_000_000_000}}
	m := Metrics{
		Periods: 120, Completed: 118, Missed: 2,
		MeanCPUUtil: 0.61, MeanNetUtil: 0.34,
		MeanReplicas: 2.5, MaxReplicas: 4,
		Replications: 9, Shutdowns: 7, AllocFailures: 1, UnfinishedWork: 3,
		DroppedMessages: 5, Retransmissions: 4, Crashes: 1, Recoveries: 1, MeanRecoveryMS: 42.5,
	}
	runRes := RunResult{SchemaVersion: SchemaVersion, Metrics: m, Failovers: 1, EventsFired: 123456}
	sweepRes := SweepResult{
		SchemaVersion: SchemaVersion,
		Points: []SweepPoint{
			{MaxUnits: 8, Algorithm: AlgPredictive, Metrics: m, Reps: []Metrics{m, m}},
			{MaxUnits: 8, Algorithm: AlgNonPredictive, Metrics: m},
		},
	}
	return map[string]any{
		"run_request": RunRequest{
			SchemaVersion: SchemaVersion,
			Algorithm:     AlgPredictive,
			Seed:          &fixtureSeed,
			Config:        &cfg,
			Task: TaskSpec{
				Pattern: Pattern{Kind: PatternTriangular, Min: 500, Max: 12000, Periods: 120, Cycles: 2},
				Models:  ModelsProfiled,
			},
		},
		"sweep_request": SweepRequest{
			SchemaVersion: SchemaVersion,
			Pattern:       SweepTriangular,
			Points:        []int{1, 4, 8, 16, 24},
			Seeds:         3,
		},
		"run_result":   runRes,
		"sweep_result": sweepRes,
		"job_run": Job{
			SchemaVersion: SchemaVersion,
			ID:            "job-1", Kind: "run", State: JobDone,
			CreatedMS: 1700000000000, StartedMS: 1700000000100, FinishedMS: 1700000004200,
			Run: &runRes,
		},
		"job_failed": Job{
			SchemaVersion: SchemaVersion,
			ID:            "job-2", Kind: "sweep", State: JobFailed,
			Error:     "api: unknown sweep pattern \"sawtooth\"",
			CreatedMS: 1700000000000, StartedMS: 1700000000100, FinishedMS: 1700000000100,
		},
		"job_retrying": Job{
			SchemaVersion: SchemaVersion,
			ID:            "job-3", Kind: "run", State: JobRetrying,
			Error:       "transient: injected journal stall",
			Attempts:    2,
			Fingerprint: "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
			CreatedMS:   1700000000000, StartedMS: 1700000000100,
		},
		"stats": Stats{
			SchemaVersion: SchemaVersion,
			Scheduler:     SchedulerStats{Requested: 10, Deduped: 2, MemoryHits: 3, DiskHits: 1, Simulated: 3, Cancelled: 1, Remote: 0},
			Jobs:          JobStats{Queued: 1, Running: 2, Done: 5, Failed: 1, Cancelled: 1},
			Sessions:      &SessionStats{Active: 1, Done: 2, Subscribers: 7, Evictions: 3},
			QueueDepth:    1, QueueCapacity: 64, Workers: 8,
			Draining:  false,
			Telemetry: map[string]float64{"rmserved_jobs_submitted_total{kind=\"run\"}": 9},
		},
		"error": ErrorEnvelope{Error: Error{Code: CodeQueueFull, Message: "job queue full (64 waiting); retry later"}},
		"pattern_custom": Pattern{
			Kind: PatternCustom, Label: "recorded", Values: []int{500, 900, 1400, 700},
		},
		"session_request": SessionRequest{
			SchemaVersion: SchemaVersion,
			Algorithm:     AlgPredictive,
			Seed:          &fixtureSeed,
			Task: TaskSpec{
				Pattern: Pattern{Kind: PatternTriangular, Min: 500, Max: 12000, Periods: 120, Cycles: 2},
			},
			SampleMS:    250,
			MaxRateHz:   20,
			HeartbeatMS: 5000,
			Buffer:      128,
		},
		"session":       fixtureSession(),
		"session_state": fixtureSessionState(),
		"event_snapshot": Event{
			Type: EventSnapshot, Seq: 1,
			Session:  ptr(fixtureSession()),
			Snapshot: ptr(fixtureSessionState()),
		},
		"event_diff": Event{
			Type: EventDiff, Seq: 2,
			Session: ptr(fixtureSession()),
			Diff: &SessionDiff{
				SimMS: 1500,
				Nodes: []SessionNodeDelta{{Node: 2, SessionNode: SessionNode{Util: 0.91, Down: true}}},
				Tasks: []SessionTaskDelta{{Task: 0, SessionTask: SessionTask{
					Name: "benchmark", Stages: [][]int{{0}, {1, 3}, {2}}, Completed: 3, Missed: 1,
				}}},
				Metrics: &Metrics{Periods: 3, Completed: 3, Missed: 1, MaxReplicas: 6},
			},
		},
		"event_heartbeat": Event{Type: EventHeartbeat},
		"job_page": JobPage{
			SchemaVersion: SchemaVersion,
			Jobs: []Job{{
				SchemaVersion: SchemaVersion,
				ID:            "job-2", Kind: "run", State: JobDone,
				CreatedMS: 1700000000000, StartedMS: 1700000000100, FinishedMS: 1700000004200,
				Run: &runRes,
			}},
			NextAfter: "job-2",
		},
	}
}

func ptr[T any](v T) *T { return &v }

// fixtureSession and fixtureSessionState are shared by several golden
// DTOs, so the fixtures stay mutually consistent.
func fixtureSession() Session {
	return Session{
		SchemaVersion: SchemaVersion,
		ID:            "sess-1", State: SessionRunning,
		Algorithm: AlgPredictive, SampleMS: 250,
		CreatedMS: 1700000000000, SimMS: 1250, Seq: 5,
		Subscribers: 2, Evictions: 1,
	}
}

func fixtureSessionState() SessionState {
	return SessionState{
		SimMS: 1250,
		Nodes: []SessionNode{{Util: 0.42}, {Util: 0.77}, {Util: 0, Down: true}, {Util: 0.11}, {Util: 0.5}, {Util: 0.31}},
		Tasks: []SessionTask{{
			Name: "benchmark", Stages: [][]int{{0}, {1, 3}, {2}}, Completed: 2, InFlight: 1,
		}},
		Metrics: Metrics{Periods: 2, Completed: 2, MeanCPUUtil: 0.4, MaxReplicas: 6, Crashes: 1},
	}
}

// TestGoldenFixtures pins the JSON encoding of every v1 DTO. Run with
// -update to regenerate after an intentional wire change.
func TestGoldenFixtures(t *testing.T) {
	for name, v := range goldenDTOs() {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", name+".json")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden fixture (run `go test ./internal/api -update`): %v", err)
			}
			if !bytes.Equal(want, buf.Bytes()) {
				t.Errorf("encoding of %s drifted from its golden fixture.\nThis is a wire-format change — follow the versioning policy, then regenerate with -update.\n got:\n%s\nwant:\n%s", name, buf.Bytes(), want)
			}
		})
	}
}

// TestGoldenFixturesDecode proves every fixture decodes back to the
// exact value it was encoded from — no field silently dropped.
func TestGoldenFixturesDecode(t *testing.T) {
	for name, v := range goldenDTOs() {
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			got := reflect.New(reflect.TypeOf(v))
			if err := json.Unmarshal(data, got.Interface()); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Elem().Interface(), v) {
				t.Errorf("decode(encode(%s)) != original:\n got %+v\nwant %+v", name, got.Elem().Interface(), v)
			}
		})
	}
}

// TestConfigRoundTrip proves the Table 1 defaults (and a config with
// every optional section populated) survive the wire exactly.
func TestConfigRoundTrip(t *testing.T) {
	cases := map[string]core.Config{"default": core.DefaultConfig()}
	loaded := core.DefaultConfig()
	loaded.Seed = 99
	loaded.ClockSync = true
	loaded.ClockDriftPPM = 50
	loaded.Faults = []core.Fault{{Node: 1, At: 5_000_000_000}}
	loaded.Degradation = core.HardenedDegradation()
	loaded.Network.DropProb = 0.01
	loaded.Network.LossSeed = 3
	cases["loaded"] = loaded
	for name, want := range cases {
		t.Run(name, func(t *testing.T) {
			got, err := ConfigFromCore(want).ToCore()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("config did not survive the wire round trip:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestConfigMirrorsEveryCoreField reflectively mutates each leaf of
// core.Config (Telemetry excepted — it observes a run, it does not shape
// one) and asserts the mutation is visible in the wire encoding. A new
// core knob that the mirror misses fails here, not in production as a
// silently-ignored field.
func TestConfigMirrorsEveryCoreField(t *testing.T) {
	base := core.DefaultConfig()
	baseJSON, err := json.Marshal(ConfigFromCore(base))
	if err != nil {
		t.Fatal(err)
	}
	mutateLeaf := func(f reflect.Value) bool {
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		case reflect.Float32, reflect.Float64:
			f.SetFloat(f.Float() + 0.25)
		case reflect.String:
			f.SetString(f.String() + "x")
		default:
			return false
		}
		return true
	}
	var walk func(t *testing.T, root *core.Config, v reflect.Value, path string)
	check := func(t *testing.T, root *core.Config, name string) {
		mutated, err := json.Marshal(ConfigFromCore(*root))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(mutated, baseJSON) {
			t.Errorf("core.Config.%s: mutation invisible on the wire — the api.Config mirror is missing this field", name)
		}
	}
	walk = func(t *testing.T, root *core.Config, v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			sf := v.Type().Field(i)
			if !sf.IsExported() {
				continue
			}
			f := v.Field(i)
			name := path + sf.Name
			switch f.Kind() {
			case reflect.Struct:
				walk(t, root, f, name+".")
			case reflect.Slice:
				el := reflect.New(sf.Type.Elem()).Elem()
				f.Set(reflect.Append(reflect.MakeSlice(sf.Type, 0, 1), el))
				check(t, root, name)
				f.Set(reflect.Zero(sf.Type))
			default:
				if !mutateLeaf(f) {
					t.Errorf("core.Config.%s: kind %v not handled by the walker", name, f.Kind())
					continue
				}
				check(t, root, name)
				// Restore the defaults in place; the reflect values all
				// point into root's memory, so they stay valid.
				*root = core.DefaultConfig()
			}
		}
	}
	cfg := core.DefaultConfig()
	walk(t, &cfg, reflect.ValueOf(&cfg).Elem(), "")
}

// TestPatternRoundTrip proves every workload pattern type the schema
// expresses survives encode → materialize exactly.
func TestPatternRoundTrip(t *testing.T) {
	patterns := []workload.Pattern{
		workload.NewTriangular(500, 12000, 120, 2),
		workload.NewIncreasingRamp(500, 8000, 60),
		workload.NewDecreasingRamp(500, 8000, 60),
		workload.NewStep(500, 9000, 100, 50),
		workload.NewBurst(500, 11000, 120, 20, 5),
		workload.NewSinusoid(500, 10000, 120, 3),
		workload.NewConstant(4000, 40),
		workload.NewCustom("trace", []int{500, 900, 1400}),
	}
	for _, p := range patterns {
		wire, ok := PatternFromWorkload(p)
		if !ok {
			t.Errorf("%T: not encodable", p)
			continue
		}
		back, err := wire.ToWorkload()
		if err != nil {
			t.Errorf("%T: %v", p, err)
			continue
		}
		if !reflect.DeepEqual(back, p) {
			t.Errorf("%T: round trip drifted:\n got %+v\nwant %+v", p, back, p)
		}
	}
}

// TestRunRequestValidateAggregates proves a multiply-broken request
// reports every problem at once, not just the first.
func TestRunRequestValidateAggregates(t *testing.T) {
	req := RunRequest{
		SchemaVersion: 99,
		Algorithm:     "oracle",
		Task:          TaskSpec{Pattern: Pattern{Kind: "sawtooth"}, Models: "vibes"},
	}
	err := req.Validate()
	if err == nil {
		t.Fatal("want an error for an invalid request")
	}
	for _, frag := range []string{"schema_version 99", "oracle", "sawtooth", "vibes"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("aggregated error should mention %q; got:\n%v", frag, err)
		}
	}
}

// TestSweepRequestValidate covers the sweep-specific rules.
func TestSweepRequestValidate(t *testing.T) {
	good := SweepRequest{SchemaVersion: SchemaVersion, Pattern: SweepTriangular, Points: []int{1, 2}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
	bad := SweepRequest{SchemaVersion: SchemaVersion, Pattern: "sawtooth", Seeds: -1}
	err := bad.Validate()
	if err == nil {
		t.Fatal("want an error")
	}
	for _, frag := range []string{"sawtooth", "≥1 point", "negative seed"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("want %q in:\n%v", frag, err)
		}
	}
}

// TestTerminalState pins which states are final.
func TestTerminalState(t *testing.T) {
	for state, terminal := range map[string]bool{
		JobQueued: false, JobRunning: false, JobRetrying: false,
		JobDone: true, JobFailed: true, JobCancelled: true,
	} {
		if TerminalState(state) != terminal {
			t.Errorf("TerminalState(%q) = %v, want %v", state, TerminalState(state), terminal)
		}
	}
}

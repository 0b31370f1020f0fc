package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/api"
	"repro/internal/metrics"
	"repro/internal/resil"
)

// distinctMetrics sets every RunMetrics leaf to its own non-zero value,
// so a round trip that drops, zeroes or swaps any field shows up.
func distinctMetrics(t *testing.T) metrics.RunMetrics {
	var m metrics.RunMetrics
	v := reflect.ValueOf(&m).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i+1) + 0.25)
		default:
			t.Fatalf("RunMetrics.%s: kind %v not handled", v.Type().Field(i).Name, f.Kind())
		}
	}
	return m
}

// TestDiskCacheRoundTrip stores an outcome with every metric set and
// reads it back exactly, both from its wire JSON and from the cache.
func TestDiskCacheRoundTrip(t *testing.T) {
	c, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	out := api.RunResult{
		SchemaVersion: api.SchemaVersion,
		Metrics:       distinctMetrics(t),
		Failovers:     3,
		EventsFired:   987654,
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	var wire api.RunResult
	if err := json.Unmarshal(data, &wire); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wire, out) {
		t.Fatalf("JSON round trip changed the outcome:\nput %#v\ngot %#v", out, wire)
	}
	if err := c.Put(key, out); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	if !reflect.DeepEqual(got, out) {
		t.Fatalf("round trip changed the outcome:\nput %#v\ngot %#v", out, got)
	}
	if n := c.Len(); n != 1 {
		t.Errorf("Len = %d", n)
	}
}

func TestDiskCacheCorruptEntryIsAMiss(t *testing.T) {
	c, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "feedfacefeedfacefeedfacefeedfacefeedfacefeedfacefeedfacefeedface"
	if err := c.Put(key, api.RunResult{EventsFired: 1}); err != nil {
		t.Fatal(err)
	}
	corruptCacheFiles(t, c.Dir())
	if _, ok := c.Get(key); ok {
		t.Error("corrupt entry served as a hit")
	}
}

// corruptCacheFiles overwrites every cache entry with garbage.
func corruptCacheFiles(t *testing.T, dir string) {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" {
			return err
		}
		n++
		return os.WriteFile(path, []byte("{not json"), 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no cache entries to corrupt")
	}
}

// TestSchedulerDiskCacheWarmAndCorrupt is the cache's end-to-end
// contract: a cold sweep writes through, a warm process (simulated by
// dropping the in-memory memo) reads every run back without simulating,
// and corrupted entries silently fall back to re-simulation with
// identical results.
func TestSchedulerDiskCacheWarmAndCorrupt(t *testing.T) {
	cache, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	SetDiskCache(cache)
	defer SetDiskCache(nil)
	ResetSweepCache()

	points := []int{0, 4}
	var cold []api.SweepPoint
	coldStats := statsDelta(func() {
		cold, err = Sweep(context.Background(), points, TriangularFactory, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
	})
	if coldStats.Simulated != 4 || coldStats.DiskHits != 0 {
		t.Fatalf("cold run: %+v, want 4 simulated / 0 disk hits", coldStats)
	}
	if cache.Len() != 4 {
		t.Fatalf("cache holds %d entries after cold run, want 4", cache.Len())
	}

	ResetSweepCache() // forget the in-process memo; disk must serve everything
	var warm []api.SweepPoint
	warmStats := statsDelta(func() {
		warm, err = Sweep(context.Background(), points, TriangularFactory, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
	})
	if warmStats.Simulated != 0 || warmStats.DiskHits != 4 {
		t.Fatalf("warm run: %+v, want 0 simulated / 4 disk hits", warmStats)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("disk-served results differ from the simulated ones")
	}

	corruptCacheFiles(t, cache.Dir())
	ResetSweepCache()
	var again []api.SweepPoint
	corruptStats := statsDelta(func() {
		again, err = Sweep(context.Background(), points, TriangularFactory, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
	})
	if corruptStats.Simulated != 4 || corruptStats.DiskHits != 0 {
		t.Fatalf("corrupt-cache run: %+v, want 4 simulated / 0 disk hits", corruptStats)
	}
	if !reflect.DeepEqual(cold, again) {
		t.Fatal("results after cache corruption differ from the original run")
	}
}

// TestDiskCacheQuarantinesCorruptEntries: a corrupt entry degrades to a
// miss AND is moved aside as .corrupt with the corruption counted, so
// operators can see bit-rot instead of paying silent re-simulation.
func TestDiskCacheQuarantinesCorruptEntries(t *testing.T) {
	c, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var observed []string
	c.OnCorrupt = func(path string) { observed = append(observed, path) }
	key := "deadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeef"
	if err := c.Put(key, api.RunResult{EventsFired: 7}); err != nil {
		t.Fatal(err)
	}
	corruptCacheFiles(t, c.Dir())

	if _, ok := c.Get(key); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if got := c.CorruptCount(); got != 1 {
		t.Errorf("CorruptCount = %d, want 1", got)
	}
	if len(observed) != 1 {
		t.Errorf("OnCorrupt fired %d times, want 1", len(observed))
	}
	entry := filepath.Join(c.Dir(), key[:2], key+".json")
	if _, err := os.Stat(entry); !os.IsNotExist(err) {
		t.Errorf("corrupt entry still at %s; want it renamed aside", entry)
	}
	if _, err := os.Stat(entry + ".corrupt"); err != nil {
		t.Errorf("quarantined file missing: %v", err)
	}

	// The slot is a clean miss now — no re-quarantine on later reads —
	// and a rewrite reclaims it.
	if _, ok := c.Get(key); ok {
		t.Fatal("hit after quarantine")
	}
	if got := c.CorruptCount(); got != 1 {
		t.Errorf("second Get re-counted the same corruption: %d", got)
	}
	if err := c.Put(key, api.RunResult{EventsFired: 8}); err != nil {
		t.Fatal(err)
	}
	if out, ok := c.Get(key); !ok || out.EventsFired != 8 {
		t.Errorf("rewritten slot: ok=%v out=%+v", ok, out)
	}
}

// TestDiskCachePutFailuresAreTransient: injected write failures surface
// as transient errors (the retry taxonomy) and leave no partial entry.
func TestDiskCachePutFailuresAreTransient(t *testing.T) {
	boom := errors.New("injected: disk full")
	for _, tc := range []struct {
		name string
		rule resil.Rule
	}{
		{"create", resil.Rule{Op: resil.OpCreate, Err: boom}},
		{"write", resil.Rule{Op: resil.OpWrite, Err: boom}},
		{"torn-write", resil.Rule{Op: resil.OpWrite, Err: boom, TornBytes: 5}},
		{"rename", resil.Rule{Op: resil.OpRename, Err: boom}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := resil.NewInjector(nil).Inject(tc.rule)
			c, err := OpenDiskCacheFS(t.TempDir(), inj)
			if err != nil {
				t.Fatal(err)
			}
			key := "cafebabecafebabecafebabecafebabecafebabecafebabecafebabecafebabe"
			err = c.Put(key, api.RunResult{EventsFired: 1})
			if !resil.IsTransient(err) {
				t.Fatalf("Put error %v, want transient", err)
			}
			if _, ok := c.Get(key); ok {
				t.Error("failed Put left a readable entry")
			}
			if n := c.Len(); n != 0 {
				t.Errorf("failed Put left %d entries on disk", n)
			}
		})
	}
}

package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"reflect"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// pb is a minimal protocol-buffer writer for synthetic profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(field int, v []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(v)))
	p.b = append(p.b, v...)
	return p
}

// synthProfile encodes a profile whose samples have the given stacks
// (leaf first; each frame its own location) and CPU-nanosecond values.
func synthProfile(t *testing.T, stacks [][]string, values []int64) []byte {
	t.Helper()
	strs := []string{""}
	ids := map[string]uint64{}
	prof := &pb{}
	for _, st := range stacks {
		for _, fn := range st {
			if _, ok := ids[fn]; ok {
				continue
			}
			id := uint64(len(ids) + 1)
			ids[fn] = id
			strs = append(strs, fn)
			line := (&pb{}).varint(1, id).b
			prof.bytes(4, (&pb{}).varint(1, id).bytes(4, line).b)                 // location id → line → function id
			prof.bytes(5, (&pb{}).varint(1, id).varint(2, uint64(len(strs)-1)).b) // function id → name
		}
	}
	for i, st := range stacks {
		var locs, vals []byte
		for _, fn := range st {
			locs = binary.AppendUvarint(locs, ids[fn])
		}
		vals = binary.AppendUvarint(vals, 1)
		vals = binary.AppendUvarint(vals, uint64(values[i]))
		prof.bytes(2, (&pb{}).bytes(1, locs).bytes(2, vals).b)
	}
	for _, s := range strs {
		prof.bytes(6, []byte(s))
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(prof.b)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return z.Bytes()
}

func TestBucketingOfSyntheticProfile(t *testing.T) {
	stacks := [][]string{
		{"repro/internal/sim.(*Engine).pop", "repro/internal/sim.(*Engine).Run", "repro/internal/core.Run"},
		{"repro/internal/core.(*system).dispatch", "repro/internal/core.Run"},
		{"encoding/json.(*encodeState).marshal", "encoding/json.Marshal", "repro/internal/api.Event.WriteSSE"},
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		{"runtime.futex", "runtime.findRunnable", "runtime.schedule"},
		{"runtime.memmove", "repro/internal/session.(*Hub).Publish"},
		{"net/http.(*conn).serve"},
		{"gcWriteBarrier2", "repro/internal/sim.(*Engine).push"},
	}
	values := []int64{40, 20, 15, 7, 5, 6, 4, 3}
	var b cpuBuckets
	if err := b.addProfile(synthProfile(t, stacks, values)); err != nil {
		t.Fatal(err)
	}
	if b.total != 100 {
		t.Fatalf("total = %d, want 100", b.total)
	}
	for _, c := range []struct {
		buckets []string
		want    float64
	}{
		{[]string{"sim"}, 40},
		{[]string{"core"}, 20},
		{[]string{"json"}, 15},
		{[]string{"runtime.gc"}, 10},
		{[]string{"runtime.sched"}, 5},
		{[]string{"runtime"}, 6}, // a runtime leaf under session code stays runtime
		{[]string{"net/http"}, 4},
		{[]string{"server", "resil"}, 0},
	} {
		if got := b.sharePct(c.buckets...); !near(got, c.want) {
			t.Errorf("share of %v = %v%%, want %v%%", c.buckets, got, c.want)
		}
	}
}

func TestPkgOf(t *testing.T) {
	for in, want := range map[string]string{
		"repro/internal/sim.(*Engine).pop":      "repro/internal/sim",
		"encoding/json.Marshal":                 "encoding/json",
		"runtime.mallocgc":                      "runtime",
		"main.spin":                             "main",
		"repro/internal/core.Run[...].func1":    "repro/internal/core",
		"internal/runtime/syscall.Syscall6":     "internal/runtime/syscall",
		"net/http.(*persistConn).readLoop":      "net/http",
		"sync/atomic.(*Int64).Add":              "sync/atomic",
		"vendor/golang.org/x/net/http2.(*Fr).X": "vendor/golang.org/x/net/http2",
	} {
		if got := pkgOf(in); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestDecodeRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		spinSink += spin(100_000)
	}
	pprof.StopCPUProfile()
	var b cpuBuckets
	if err := b.addProfile(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if b.total == 0 {
		t.Skip("no CPU samples collected")
	}
	self := pkgOf(runtime.FuncForPC(reflect.ValueOf(spin).Pointer()).Name())
	if got := b.sharePct(self); got < 50 {
		t.Errorf("spin loop share in %s = %.1f%%, want most of the profile; buckets %v", self, got, b.by)
	}
}

func TestDecodeRejectsTruncatedProfile(t *testing.T) {
	raw := (&pb{}).bytes(6, []byte("hello")).b
	if _, err := decodeProfile(raw[:len(raw)-2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

func TestTracerSpans(t *testing.T) {
	var off *tracer
	if id := off.begin(1, -1, "x"); id != -1 {
		t.Errorf("nil tracer begin = %d, want -1", id)
	}
	off.end(-1)
	if off.durations("x").n() != 0 {
		t.Error("nil tracer recorded a span")
	}
	tr := newTracer()
	root := tr.begin(7, -1, "op")
	child := tr.begin(7, root, "call")
	tr.end(child)
	tr.end(root)
	open := tr.begin(8, -1, "call")
	_ = open
	if got := tr.durations("call").n(); got != 1 {
		t.Errorf("closed call spans = %d, want 1 (open spans are not durations)", got)
	}
	if s := tr.spans[child]; s.Parent != root || s.Op != 7 || s.EndNS < s.StartNS {
		t.Errorf("child span = %+v", s)
	}
}

package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Spans of one operation share op; parent is the enclosing span's id, or
// -1 for an operation's root.
type span struct {
	Op      uint64 `json:"op"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op that reads no clock.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin opens a span and returns its id.
func (t *tracer) begin(op uint64, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name, StartNS: now, EndNS: -1})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// durations collects the closed spans called name, in milliseconds.
func (t *tracer) durations(name string) *dist {
	d := &dist{}
	if t == nil {
		return d
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name && s.EndNS >= 0 {
			d.add(float64(s.EndNS-s.StartNS) / 1e6)
		}
	}
	return d
}

// cpuBuckets accumulates CPU-profile samples by the layer of each
// sample's leaf frame (see bucketOf).
type cpuBuckets struct {
	total int64
	by    map[string]int64
}

func (b *cpuBuckets) addProfile(data []byte) error {
	samples, err := decodeProfile(data)
	if err != nil {
		return err
	}
	if b.by == nil {
		b.by = make(map[string]int64)
	}
	for _, s := range samples {
		k := bucketOf(s.stack)
		b.by[k] += s.value
		b.total += s.value
	}
	return nil
}

// sharePct returns the summed share of the named buckets, in percent.
func (b *cpuBuckets) sharePct(names ...string) float64 {
	var n int64
	for _, k := range names {
		n += b.by[k]
	}
	return share(float64(n), float64(b.total))
}

// gcFrames and schedFrames mark runtime samples spent on garbage
// collection and on goroutine scheduling. Runtime leaves are split on
// them because a runtime leaf alone cannot say which of the two it is.
var (
	gcFrames = []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
	}
	schedFrames = []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.goschedImpl",
		"runtime.goexit0", "runtime.mstart", "runtime.sysmon", "runtime.gopark",
	}
)

// bucketOf names the layer a CPU sample is charged to: the package of
// its leaf frame, shortened to the module name for this repository's
// internal packages ("repro/internal/sim" → "sim") and to "json" for
// encoding/json. Runtime leaves go to "runtime.gc", "runtime.sched" or
// "runtime" by the frames beneath them.
func bucketOf(stack []string) string {
	if len(stack) == 0 {
		return "unknown"
	}
	pkg := pkgOf(stack[0])
	switch {
	case strings.HasPrefix(stack[0], "gcWriteBarrier"):
		return "runtime.gc" // assembly stubs the compiler calls, with no package prefix
	case strings.HasPrefix(pkg, "repro/internal/"):
		return strings.TrimPrefix(pkg, "repro/internal/")
	case pkg == "encoding/json":
		return "json"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/"):
		for _, f := range stack {
			for _, g := range gcFrames {
				if f == g {
					return "runtime.gc"
				}
			}
		}
		for _, f := range stack {
			for _, g := range schedFrames {
				if f == g {
					return "runtime.sched"
				}
			}
		}
		return "runtime"
	}
	return pkg
}

// pkgOf returns the import path of a symbol name such as
// "repro/internal/sim.(*Engine).pop".
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// profSample is one decoded profile sample: its call stack, leaf first
// and with inlined frames expanded, and its value (CPU nanoseconds for a
// CPU profile).
type profSample struct {
	stack []string
	value int64
}

// decodeProfile reads the gzip-compressed protocol buffer that
// runtime/pprof writes, keeping only what bucketing needs.
func decodeProfile(data []byte) ([]profSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcs   = map[uint64]int64{}    // function id → name string index
		strs    []string
	)
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == 2 && wire == 2:
			var s rawSample
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case num == 4 && wire == 2:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && wire == 2:
					return eachField(b, func(num int, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case num == 5 && wire == 2:
			var id uint64
			var name int64
			err := eachField(b, func(num int, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case num == 6 && wire == 2:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		var ps profSample
		if n := len(s.values); n > 0 {
			ps.value = s.values[n-1]
		}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i >= 0 && int(i) < len(strs) {
					ps.stack = append(ps.stack, strs[i])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protocol buffer")

// eachField walks one protocol-buffer message, handing fn each field's
// number, wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

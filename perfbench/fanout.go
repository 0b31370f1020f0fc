package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/experiment"
	"repro/internal/server"
)

// The session-fanout load, sized once at the commit that introduced this
// benchmark so that on a 2-CPU host every frame reached every subscriber
// without eviction while the host CPU was about half busy.
const (
	fanSubscribers = 400
	fanRateHz      = 50   // paced frames per second
	fanSamples     = 100  // paced samples per session: a 2 s session
	fanSampleMS    = 1000 // sim ms per sample: one task period
	// fanBuffer is each subscriber's ring, in frames: a subscriber more
	// than fanBuffer frames (160 ms at fanRateHz) behind is evicted to a
	// fresh snapshot.
	fanBuffer = 8
)

// fanout is the session-fanout workload: one paced live session per
// round with fanSubscribers subscribers, created through the server and
// streamed in-process through its stream handler — no sockets, so the
// hub and the per-subscriber SSE encoding do the work, not the kernel.
type fanout struct {
	srv    *server.Server
	rng    *rand.Rand
	acc    [2]fanAcc
	rounds uint64
}

type fanAcc struct {
	lag, spread        dist // ms
	deliveries, intend int
	frames             int
	evictions          uint64
	rounds             int
}

func (f *fanout) setup(b *bench) error {
	id := b.tr.begin(0, -1, "setup.models")
	_, err := experiment.DefaultModels()
	b.tr.end(id)
	if err != nil {
		return err
	}
	id = b.tr.begin(0, -1, "setup.server")
	defer b.tr.end(id)
	f.srv, err = server.New(server.Options{
		Logger: slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError})),
	})
	return err
}

func (f *fanout) prepare(b *bench) error {
	f.rng = rand.New(rand.NewSource(int64(b.seed)))
	return nil
}

// call serves one request in-process and decodes a JSON response.
func (f *fanout) call(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	rec := httptest.NewRecorder()
	f.srv.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	if rec.Code/100 != 2 {
		return fmt.Errorf("%s %s: http %d: %s", method, path, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	return json.Unmarshal(rec.Body.Bytes(), out)
}

func (f *fanout) round(b *bench, tr *tracer) (roundOut, error) {
	acc := &f.acc[0]
	if tr != nil {
		acc = &f.acc[1]
	}
	f.rounds++
	op := f.rounds
	seed := f.rng.Uint64()
	req := api.SessionRequest{
		SchemaVersion: api.SchemaVersion,
		Algorithm:     api.AlgPredictive,
		Seed:          &seed,
		Task: api.TaskSpec{Pattern: api.Pattern{
			Kind: api.PatternConstant, Value: (1 + f.rng.Intn(5)) * experiment.MinWorkload, Periods: fanSamples,
		}},
		SampleMS:  fanSampleMS,
		MaxRateHz: fanRateHz,
		Buffer:    fanBuffer,
	}
	w0, c0 := nowCPU()
	root := tr.begin(op, -1, "session.round")
	sp := tr.begin(op, root, "session.create")
	var sess api.Session
	if err := f.call(http.MethodPost, "/v1/sessions", req, &sess); err != nil {
		tr.end(sp)
		tr.end(root)
		b.rep.op(err)
		return roundOut{ops: 1}, nil
	}
	tr.end(sp)
	subs := make([]*sseSink, fanSubscribers)
	var wg sync.WaitGroup
	for i := range subs {
		subs[i] = &sseSink{hdr: http.Header{}, recv: map[uint64]time.Time{}}
		wg.Add(1)
		go func(s *sseSink) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
			defer cancel()
			sp := tr.begin(op, root, "session.stream")
			r := httptest.NewRequest(http.MethodGet, "/v1/sessions/"+sess.ID+"/stream", nil).WithContext(ctx)
			f.srv.ServeHTTP(s, r)
			tr.end(sp)
			if s.err == nil && ctx.Err() != nil {
				s.err = fmt.Errorf("stream did not end within %v", opTimeout)
			}
		}(subs[i])
	}
	wg.Wait()
	tr.end(root)
	wall, cpu := sinceCPU(w0, c0)

	var final api.SessionState
	var info api.Session
	err := f.call(http.MethodGet, "/v1/sessions/"+sess.ID+"/state", nil, &final)
	if err == nil {
		err = f.call(http.MethodGet, "/v1/sessions/"+sess.ID, nil, &info)
	}
	if err != nil {
		b.rep.op(err)
		return roundOut{ops: 1}, nil
	}
	round := &dist{}
	spreadFirst := map[uint64]time.Time{}
	spreadLast := map[uint64]time.Time{}
	verifySubs(b.rep, subs, final)
	delivered := 0
	for _, s := range subs {
		if s.err != nil {
			continue
		}
		delivered += s.frames
		acc.deliveries += s.frames
		acc.intend += int(info.Seq-s.first) + 1
		for seq, at := range s.recv {
			due, paced := frameDue(w0, seq, s.first, info.Seq)
			if !paced {
				continue
			}
			v := ms(at.Sub(due))
			round.add(v)
			acc.lag.add(v)
			if t, ok := spreadFirst[seq]; !ok || at.Before(t) {
				spreadFirst[seq] = at
			}
			if t, ok := spreadLast[seq]; !ok || at.After(t) {
				spreadLast[seq] = at
			}
		}
	}
	for seq, first := range spreadFirst {
		acc.spread.add(ms(spreadLast[seq].Sub(first)))
	}
	acc.frames += int(info.Seq)
	acc.evictions += info.Evictions
	acc.rounds++
	p50, _ := round.pct(50)
	return roundOut{
		value:  p50,
		perS:   float64(delivered) / wall.Seconds(),
		perCPU: float64(delivered) / cpu.Seconds(),
		ops:    fanSubscribers,
	}, nil
}

// frameDue is when frame seq of a session created at start is due on
// its pacing schedule: frame k is due (k-1)/fanRateHz after the create
// request was sent. A subscriber's first frame (its join snapshot) and
// the session's last two frames (the final observation and the terminal
// snapshot, of a session whose last frame is last) are not paced.
func frameDue(start time.Time, seq, first, last uint64) (time.Time, bool) {
	if seq == first || seq+2 > last {
		return time.Time{}, false
	}
	return start.Add(time.Duration(seq-1) * (time.Second / fanRateHz)), true
}

func (f *fanout) report(b *bench, rep *report) {
	a := &f.acc[0]
	n := a.lag.n()
	p99, _ := a.lag.pct(99)
	rep.name("update_lag_p50_ms", "ms", rep.headline, n,
		fmt.Sprintf("%d subscribers, %d Hz pacing; median of %d session medians", fanSubscribers, fanRateHz, rep.rounds))
	rep.name("update_lag_p99_ms", "ms", p99, n, tailNote(99, n))
	rep.name("updates_per_cpu_s", "1/s", rep.e2e["work_per_cpu_s"], rep.rounds, "median over sessions")
	rep.name("evicted_pct", "%", evictedPct(a.evictions, a.intend), a.intend, "hub evictions per 100 intended deliveries")
	if !b.trace {
		return
	}
	a = &f.acc[1]
	r := float64(a.rounds)
	rep.layers["session.frames"] = float64(a.frames) / r
	rep.layers["session.deliveries"] = float64(a.deliveries) / r
	rep.layers["session.evictions"] = float64(a.evictions)
	rep.layers["session.fanout_spread_ms_p99"], _ = a.spread.pct(99)
	rep.why["sim.events"] = "a session's run result is not exposed through the v1 API"
	rep.why["sim.ns_per_event"] = rep.why["sim.events"]
}

func (f *fanout) close() {
	if f.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = f.srv.Drain(ctx) // every session has ended; nothing is in flight
	}
	experiment.SetWallObserver(nil)
}

// verifySubs counts each subscriber as one operation and checks its
// stream: seqs must increase strictly and the fold must equal the
// session's final state.
func verifySubs(rep *report, subs []*sseSink, final api.SessionState) {
	for _, s := range subs {
		rep.op(s.err)
		if s.err != nil {
			continue
		}
		if !s.increasing {
			rep.checkFailed("session-fanout: a subscriber's seqs did not increase strictly")
		}
		if !s.state.Equal(final) {
			rep.checkFailed("session-fanout: a subscriber's fold differs from the final /state")
		}
	}
}

// sseSink is one in-process subscriber: the stream handler writes SSE
// frames into it, and each Flush folds the complete frames received so
// far, stamping them with the time they arrived.
type sseSink struct {
	hdr        http.Header
	pending    []byte
	state      api.SessionState
	recv       map[uint64]time.Time // seq → receipt
	first      uint64               // seq of the first frame (the join snapshot)
	last       uint64
	frames     int
	increasing bool
	err        error
}

func (s *sseSink) Header() http.Header { return s.hdr }

// WriteHeader fails the subscriber on any status but 200: its body is
// then an error envelope, not a stream.
func (s *sseSink) WriteHeader(code int) {
	if code != http.StatusOK && s.err == nil {
		s.err = fmt.Errorf("stream: http %d", code)
	}
}

func (s *sseSink) Write(p []byte) (int, error) {
	s.pending = append(s.pending, p...)
	return len(p), nil
}

func (s *sseSink) Flush() {
	now := time.Now()
	for s.err == nil {
		i := bytes.Index(s.pending, []byte("\n\n"))
		if i < 0 {
			break
		}
		s.frame(s.pending[:i], now)
		s.pending = s.pending[i+2:]
	}
}

// frame folds one SSE frame.
func (s *sseSink) frame(raw []byte, at time.Time) {
	var id, name string
	var data []byte
	for _, line := range bytes.Split(raw, []byte("\n")) {
		k, v, _ := bytes.Cut(line, []byte(": "))
		switch string(k) {
		case "id":
			id = string(v)
		case "event":
			name = string(v)
		case "data":
			data = v
		}
	}
	ev, err := api.ParseSSE(name, data)
	if err != nil {
		s.err = err
		return
	}
	switch ev.Type {
	case api.EventSnapshot:
		s.state = ev.Snapshot.Clone()
	case api.EventDiff:
		s.state.Apply(*ev.Diff)
	default:
		return
	}
	seq, err := strconv.ParseUint(id, 10, 64)
	if err != nil {
		s.err = fmt.Errorf("frame id %q: %w", id, err)
		return
	}
	if s.frames == 0 {
		s.first, s.increasing = seq, true
	} else if seq <= s.last {
		s.increasing = false
	}
	s.last = seq
	s.frames++
	s.recv[seq] = at
}

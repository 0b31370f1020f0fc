// Package session runs live simulation sessions: long-running observed
// runs whose state stream — snapshots and diffs — fans out to any
// number of concurrent subscribers without ever blocking the simulation
// loop.
//
// The fan-out discipline is drop-to-snapshot: every subscriber owns a
// fixed ring of pending events, and a subscriber that falls a full ring
// behind is evicted — its buffer is cleared and its next read returns a
// fresh snapshot of the current state instead of the missed diffs.
// Publishing therefore never waits on a consumer; slow readers lose
// intermediate frames, never correctness, because a snapshot plus the
// diffs after it folds to exactly the state the stream describes.
package session

import (
	"context"
	"errors"
	"sync"

	"repro/internal/api"
)

// ErrClosed is returned by Subscriber.Next once the session's stream
// has ended and every buffered event has been delivered.
var ErrClosed = errors.New("session: stream closed")

// Hub fans one session's event stream out to its subscribers. The
// publisher (the simulation goroutine) and any number of subscriber
// goroutines may call it concurrently.
type Hub struct {
	mu sync.Mutex
	// seq numbers published events from 1; it is the SSE id and the
	// Last-Event-ID resume key. Heartbeats live in the transport layer
	// and never pass through the hub, so seq only moves with state.
	seq uint64
	// state/stamp are the latest published snapshot state and session
	// view; hasState guards the virgin hub (nothing published yet).
	state    api.SessionState
	stamp    api.Session
	hasState bool
	closed   bool
	// replay is a circular buffer of recent events keyed by seq — event
	// q sits at replay[(q-1) % len(replay)] — so a reconnect with a
	// Last-Event-ID inside the window replays the missed tail instead of
	// forcing a snapshot.
	replay        []api.Event
	subs          map[*Subscriber]struct{}
	evictions     uint64
	defaultBuffer int
}

func newHub(replayWindow, defaultBuffer int) *Hub {
	return &Hub{
		replay:        make([]api.Event, replayWindow),
		subs:          make(map[*Subscriber]struct{}),
		defaultBuffer: defaultBuffer,
	}
}

// Publish appends the next state to the stream: the first publish
// becomes a snapshot event, every later one a diff against the previous
// state. The stamp's Seq/SimMS are overwritten with the event's. It
// never blocks: subscribers that cannot absorb the event are evicted to
// lagged (their next read resyncs from a snapshot). Returns the
// event's seq.
func (h *Hub) Publish(stamp api.Session, state api.SessionState) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return h.seq
	}
	h.seq++
	stamp.Seq = h.seq
	stamp.SimMS = state.SimMS
	ev := api.Event{Seq: h.seq, Session: &stamp}
	if h.hasState {
		ev.Type = api.EventDiff
		d := api.DiffStates(h.state, state)
		ev.Diff = &d
	} else {
		ev.Type = api.EventSnapshot
		snap := state.Clone()
		ev.Snapshot = &snap
	}
	h.state = state
	h.stamp = stamp
	h.hasState = true
	h.fanOutLocked(ev)
	return h.seq
}

// Close ends the stream. If any state was published it emits one final
// snapshot event carrying the terminal stamp — the frame the
// stream-vs-final consistency check compares folded diffs against —
// then wakes every subscriber so their reads drain to ErrClosed.
func (h *Hub) Close(stamp api.Session) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return h.seq
	}
	h.closed = true
	if h.hasState {
		h.seq++
		stamp.Seq = h.seq
		stamp.SimMS = h.state.SimMS
		snap := h.state.Clone()
		h.stamp = stamp
		h.fanOutLocked(api.Event{Type: api.EventSnapshot, Seq: h.seq, Session: &stamp, Snapshot: &snap})
		return h.seq
	}
	// Nothing was ever published (the run failed or was stopped before
	// its first sample): there is no state to snapshot, just wake the
	// subscribers so Next returns ErrClosed.
	stamp.Seq = h.seq
	h.stamp = stamp
	for s := range h.subs {
		s.signal()
	}
	return h.seq
}

// fanOutLocked records the event in the replay window and pushes it to
// every subscriber, evicting the ones whose ring is full.
func (h *Hub) fanOutLocked(ev api.Event) {
	h.replay[int((ev.Seq-1)%uint64(len(h.replay)))] = ev
	for s := range h.subs {
		if !s.lagged && !s.push(ev) {
			s.lagged = true
			h.evictions++
		}
		s.signal()
	}
}

// Subscribe attaches a new subscriber. lastEventID is the stream
// position the caller has already seen (0 for a fresh join); when it
// falls inside the replay window and the missed tail fits the ring, the
// tail is preloaded, otherwise the subscriber starts lagged and its
// first read returns a current snapshot. buffer overrides the ring
// capacity (≤ 0 means the hub default).
func (h *Hub) Subscribe(lastEventID uint64, buffer int) *Subscriber {
	if buffer <= 0 {
		buffer = h.defaultBuffer
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := &Subscriber{hub: h, buf: make([]api.Event, buffer), notify: make(chan struct{}, 1)}
	stored := h.seq
	if w := uint64(len(h.replay)); stored > w {
		stored = w
	}
	switch {
	case lastEventID == h.seq:
		// Up to date: wait for the next event (or closure).
	case lastEventID > 0 && lastEventID < h.seq &&
		lastEventID+1 >= h.seq-stored+1 && h.seq-lastEventID <= uint64(len(s.buf)):
		for q := lastEventID + 1; q <= h.seq; q++ {
			s.push(h.replay[int((q-1)%uint64(len(h.replay)))])
		}
	case h.hasState:
		// Fresh join on a live stream, a resume from outside the window,
		// or a missed tail too big for the ring: start from a snapshot.
		s.lagged = true
	}
	h.subs[s] = struct{}{}
	return s
}

// Unsubscribe detaches a subscriber; its pending events are dropped.
func (h *Hub) Unsubscribe(s *Subscriber) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.subs, s)
}

// snapshotLocked synthesizes a snapshot event of the current state at
// the current seq — what lagged subscribers resync from.
func (h *Hub) snapshotLocked() api.Event {
	stamp := h.stamp
	snap := h.state.Clone()
	return api.Event{Type: api.EventSnapshot, Seq: h.seq, Session: &stamp, Snapshot: &snap}
}

// State returns a copy of the latest published state; ok is false while
// nothing has been published.
func (h *Hub) State() (st api.SessionState, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.hasState {
		return api.SessionState{}, false
	}
	return h.state.Clone(), true
}

// Seq returns the latest published event sequence number.
func (h *Hub) Seq() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.seq
}

// SimMS returns the sim-time progress of the latest published state.
func (h *Hub) SimMS() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state.SimMS
}

// Subscribers returns the current subscriber count.
func (h *Hub) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// Evictions returns how many times a slow subscriber was reset to a
// snapshot.
func (h *Hub) Evictions() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.evictions
}

// Subscriber is one attached consumer: a fixed ring of pending events
// drained by Next. Not safe for concurrent use by multiple goroutines
// (each stream handler owns one).
type Subscriber struct {
	hub    *Hub
	buf    []api.Event
	head   int
	n      int
	lagged bool
	notify chan struct{}
}

// push appends under the hub lock; a full ring clears itself and
// reports the overflow so the hub can mark the subscriber lagged.
func (s *Subscriber) push(ev api.Event) bool {
	if s.n == len(s.buf) {
		for i := range s.buf {
			s.buf[i] = api.Event{}
		}
		s.head, s.n = 0, 0
		return false
	}
	s.buf[(s.head+s.n)%len(s.buf)] = ev
	s.n++
	return true
}

func (s *Subscriber) pop() api.Event {
	ev := s.buf[s.head]
	s.buf[s.head] = api.Event{}
	s.head = (s.head + 1) % len(s.buf)
	s.n--
	return ev
}

// signal wakes a blocked Next without ever blocking the caller.
func (s *Subscriber) signal() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Next returns the next event, blocking until one is available, the
// stream closes (ErrClosed after the buffer drains), or ctx is done
// (ctx.Err()). An evicted subscriber's next read is a fresh snapshot at
// the current seq; buffered events are discarded since the snapshot
// already subsumes them. Callers implement heartbeats by passing a
// deadline context and treating context.DeadlineExceeded as "idle".
func (s *Subscriber) Next(ctx context.Context) (api.Event, error) {
	h := s.hub
	for {
		h.mu.Lock()
		switch {
		case s.lagged && h.hasState:
			s.lagged = false
			for i := range s.buf {
				s.buf[i] = api.Event{}
			}
			s.head, s.n = 0, 0
			ev := h.snapshotLocked()
			h.mu.Unlock()
			return ev, nil
		case s.n > 0:
			ev := s.pop()
			h.mu.Unlock()
			return ev, nil
		case h.closed:
			h.mu.Unlock()
			return api.Event{}, ErrClosed
		}
		h.mu.Unlock()
		select {
		case <-s.notify:
		case <-ctx.Done():
			return api.Event{}, ctx.Err()
		}
	}
}

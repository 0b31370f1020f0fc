package session

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/sim"
)

// Session is one live simulation run fanning its state stream out
// through a Hub. The run executes on its own goroutine via an observed
// core.RunContext; pacing and the pause gate live inside the observation
// callback, so they slow the simulation itself — the stream is never a
// lossy window onto a run that raced ahead.
//
// A stopped session always keeps a readable final state: Stop halts the
// simulation at once if something was published, and otherwise lets it
// run (unpaced, ungated) to its first sample, publishes that, and halts
// there.
type Session struct {
	// ID is the session's wire identifier (sess-N).
	ID string

	cfg    core.Config
	alg    core.Algorithm
	setups []core.TaskSetup

	every     sim.Time
	minGap    time.Duration
	heartbeat time.Duration
	buffer    int

	hub *Hub
	// ctx is cancelled by Stop and releases the pacing and pause waits;
	// simCtx halts the simulation itself, once a state is published.
	ctx     context.Context
	cancel  context.CancelFunc
	simCtx  context.Context
	haltSim context.CancelFunc
	nowMS   func() int64
	done    chan struct{}

	mu         sync.Mutex
	state      string
	errMsg     string
	algName    string
	createdMS  int64
	finishedMS int64
	// gate is non-nil while paused; Resume closes it to release the
	// simulation goroutine blocked in onSample.
	gate chan struct{}

	// nextSample is the pacing deadline; touched only on the simulation
	// goroutine.
	nextSample time.Time
}

// run executes the simulation to completion, then closes the hub with
// the terminal stamp (emitting the terminal snapshot frame).
func (s *Session) run(wg *sync.WaitGroup) {
	defer wg.Done()
	defer close(s.done)
	defer s.haltSim()
	obs := &core.Observer{Every: s.every, OnSample: s.onSample}
	_, err := core.RunContext(s.simCtx, s.cfg, s.alg, s.setups, obs)
	s.mu.Lock()
	switch {
	case err == nil:
		s.state = api.SessionDone
	case s.ctx.Err() != nil:
		s.state = api.SessionStopped
	default:
		s.state = api.SessionFailed
		s.errMsg = err.Error()
	}
	s.finishedMS = s.nowMS()
	stamp := s.stampLocked()
	s.mu.Unlock()
	s.hub.Close(stamp)
}

// onSample is the observation hook: pace, honor a pause, publish.
// It runs on the simulation goroutine, so blocking here blocks the
// simulation — which is exactly what pacing and pause mean. Once the
// session is stopped it publishes only a first sample, so the hub never
// closes without a state, and then halts the simulation.
func (s *Session) onSample(o core.Observation) {
	if !o.Final {
		s.pace()
	}
	s.await()
	if s.ctx.Err() == nil || s.hub.Seq() == 0 {
		s.mu.Lock()
		stamp := s.stampLocked()
		s.mu.Unlock()
		s.hub.Publish(stamp, stateOf(o))
	}
	if s.ctx.Err() != nil {
		s.haltSim()
	}
}

// pace sleeps the simulation so samples land at most 1/minGap per
// wall-second, turning a microseconds-long run into a watchable stream.
func (s *Session) pace() {
	if s.minGap <= 0 {
		return
	}
	now := time.Now()
	if wait := s.nextSample.Sub(now); wait > 0 {
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-s.ctx.Done():
			t.Stop()
			return
		}
		s.nextSample = s.nextSample.Add(s.minGap)
		return
	}
	s.nextSample = now.Add(s.minGap)
}

// await blocks while the session is paused; Resume or Stop releases it.
func (s *Session) await() {
	for {
		s.mu.Lock()
		gate := s.gate
		s.mu.Unlock()
		if gate == nil {
			return
		}
		select {
		case <-gate:
		case <-s.ctx.Done():
			return
		}
	}
}

// stampLocked builds the session's wire view minus the hub-owned
// counters (Seq, SimMS, Subscribers, Evictions).
func (s *Session) stampLocked() api.Session {
	return api.Session{
		SchemaVersion: api.SchemaVersion,
		ID:            s.ID,
		State:         s.state,
		Error:         s.errMsg,
		Algorithm:     s.algName,
		SampleMS:      int64(s.every / sim.Millisecond),
		CreatedMS:     s.createdMS,
		FinishedMS:    s.finishedMS,
	}
}

// Info returns the session's current wire view.
func (s *Session) Info() api.Session {
	s.mu.Lock()
	info := s.stampLocked()
	s.mu.Unlock()
	info.SimMS = s.hub.SimMS()
	info.Seq = s.hub.Seq()
	info.Subscribers = s.hub.Subscribers()
	info.Evictions = s.hub.Evictions()
	return info
}

// State returns a copy of the latest published snapshot state; ok is
// false before the first sample.
func (s *Session) State() (api.SessionState, bool) {
	return s.hub.State()
}

// Pause gates the simulation at its next sample. Pausing a paused
// session is a no-op; pausing a terminal one is an error.
func (s *Session) Pause() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if api.TerminalSessionState(s.state) {
		return fmt.Errorf("session: %s is %s", s.ID, s.state)
	}
	if s.gate == nil {
		s.gate = make(chan struct{})
		s.state = api.SessionPaused
	}
	return nil
}

// Resume releases a paused session. Resuming a running session is a
// no-op; resuming a terminal one is an error.
func (s *Session) Resume() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if api.TerminalSessionState(s.state) {
		return fmt.Errorf("session: %s is %s", s.ID, s.state)
	}
	if s.gate != nil {
		close(s.gate)
		s.gate = nil
		s.state = api.SessionRunning
	}
	return nil
}

// Stop cancels the run; the simulation halts between events (releasing
// a pause gate if one is held) and the stream closes with a stopped
// stamp. A session stopped before its first sample still publishes that
// sample first (see onSample). Stopping a terminal session is a no-op.
func (s *Session) Stop() {
	s.cancel()
	// Cancel before reading Seq: onSample either published before this
	// read (so Seq > 0 here) or checks ctx after it and halts itself.
	if s.hub.Seq() > 0 {
		s.haltSim()
	}
}

// Done closes once the run goroutine has exited and the hub is closed.
func (s *Session) Done() <-chan struct{} {
	return s.done
}

// Subscribe attaches a stream consumer (see Hub.Subscribe); the ring
// capacity is the session's configured buffer.
func (s *Session) Subscribe(lastEventID uint64) *Subscriber {
	return s.hub.Subscribe(lastEventID, s.buffer)
}

// Unsubscribe detaches a consumer.
func (s *Session) Unsubscribe(sub *Subscriber) {
	s.hub.Unsubscribe(sub)
}

// Heartbeat is the effective per-subscriber heartbeat cadence.
func (s *Session) Heartbeat() time.Duration {
	return s.heartbeat
}

// stateOf converts one core observation into its wire snapshot.
func stateOf(o core.Observation) api.SessionState {
	st := api.SessionState{
		SimMS:   int64(o.At / sim.Millisecond),
		Nodes:   make([]api.SessionNode, len(o.Nodes)),
		Tasks:   make([]api.SessionTask, len(o.Tasks)),
		Metrics: api.MetricsFromRun(o.Metrics),
	}
	for i, n := range o.Nodes {
		st.Nodes[i] = api.SessionNode{Util: n.Util, Down: n.Down}
	}
	for i, t := range o.Tasks {
		st.Tasks[i] = api.SessionTask{
			Name:      t.Name,
			Stages:    t.Stages,
			Completed: t.Completed,
			Missed:    t.Missed,
			InFlight:  t.InFlight,
		}
	}
	return st
}

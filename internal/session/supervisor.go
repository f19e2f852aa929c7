package session

// Supervisor: the self-healing loop that closes the gap from fault to
// recovery (DESIGN.md §13). A Failed session is a tombstone — its
// worker is dead and its health is terminal for that incarnation. With
// Config.AutoRestart the supervisor resurrects the id as a NEW
// incarnation: the stream is resumed from the last good checkpoint in
// Config.Checkpoints (or started fresh if none exists), a fresh
// Session replaces the old one in the manager's table under the same
// id, and the old handle keeps its Failed record so the per-incarnation
// health machine stays monotonic. Restart attempts back off
// exponentially after failures, and a per-id circuit breaker trips the
// session to PermanentlyFailed once Config.MaxRestarts restarts have
// been burned within restartWindow — a crash-looping call must not eat
// the fleet's checkpoint-store and CPU budget forever.

import (
	"errors"
	"fmt"
	"io/fs"
	"time"

	"github.com/bgbuster/bgbuster/internal/core"
)

const (
	// restartWindow is the circuit breaker's sliding window.
	restartWindow = time.Minute
	// restartBackoff delays a retry after a failed restart attempt,
	// doubling per consecutive failure up to restartBackoffMax; a
	// successful restart resets it.
	restartBackoff    = 10 * time.Millisecond
	restartBackoffMax = time.Second
	// supervisorInterval paces the scan for Failed sessions; failure
	// notifications wake the supervisor early.
	supervisorInterval = 10 * time.Millisecond
)

// restartRec is the supervisor's per-id breaker and backoff state. It
// is owned by the supervisor's goroutine — no locking.
type restartRec struct {
	// times holds the restart attempts inside the sliding window.
	times []time.Time
	// backoff is the current retry delay after a failed attempt
	// (0 = none pending); notBefore gates the next attempt.
	backoff   time.Duration
	notBefore time.Time
}

// supervise is the restart check: it resurrects every Failed session
// whose worker has exited. It runs on worker-failure notifications
// (noteFailed), so a crash is usually handled within one scheduler hop,
// and every supervisorInterval as backstop for missed wakes and elapsed
// backoff timers.
func (m *Manager) supervise(recs map[string]*restartRec) {
	for _, s := range m.list() {
		if s.Health() != Failed {
			continue
		}
		select {
		case <-s.done:
		default:
			continue // worker still unwinding; next wake catches it
		}
		m.tryRestart(s, recs)
	}
}

// tryRestart runs breaker and backoff policy for one Failed session,
// then attempts the resurrection.
func (m *Manager) tryRestart(s *Session, recs map[string]*restartRec) {
	r := recs[s.id]
	if r == nil {
		r = &restartRec{}
		recs[s.id] = r
	}
	now := time.Now()
	if now.Before(r.notBefore) {
		return // backing off after a failed attempt
	}
	// Slide the breaker window, then check the cap.
	cut := now.Add(-restartWindow)
	kept := r.times[:0]
	for _, ts := range r.times {
		if ts.After(cut) {
			kept = append(kept, ts)
		}
	}
	r.times = kept
	if len(r.times) >= m.cfg.MaxRestarts {
		m.breakerTrips.Inc()
		s.permanentlyFail(fmt.Sprintf("circuit breaker tripped: %d restarts within %s",
			len(r.times), restartWindow))
		delete(recs, s.id)
		return
	}
	r.times = append(r.times, now)
	if err := m.restartSession(s, now); err != nil {
		r.backoff = min(max(2*r.backoff, restartBackoff), restartBackoffMax)
		r.notBefore = now.Add(r.backoff)
		m.logf("session %q: restart attempt %d failed (retry in %s): %v",
			s.id, len(r.times), r.backoff, err)
		return
	}
	r.backoff = 0
	r.notBefore = time.Time{}
}

// restartSession resurrects one Failed session as a new incarnation:
// resume the stream, under the options the session was opened with,
// from the last good checkpoint (fresh when the store has none), swap
// a new Session into the manager's table under the same id, and start
// its worker. The old handle stays readable and Failed. A non-nil
// error counts as a failed attempt toward the breaker.
func (m *Manager) restartSession(old *Session, now time.Time) error {
	opts := old.opts
	var (
		stream   *core.StreamReconstructor
		fromCkpt bool
	)
	if m.cfg.Checkpoints != nil {
		data, err := m.cfg.Checkpoints.Load(old.id)
		switch {
		case err == nil:
			stream, err = core.ResumeStream(data, opts)
			if err != nil {
				// Corrupt or options-mismatched checkpoint: do NOT fall
				// back to fresh — that would silently forfeit accumulated
				// coverage. Fail the attempt; the breaker bounds how long
				// we keep trying, and the stored bytes stay untouched for
				// inspection.
				return fmt.Errorf("resume checkpoint: %w", err)
			}
			fromCkpt = true
		case errors.Is(err, fs.ErrNotExist):
			// No checkpoint was ever written (crash before the first
			// interval): restart fresh rather than abandoning the call.
		default:
			return fmt.Errorf("load checkpoint: %w", err) // transient store trouble: retry with backoff
		}
	}
	if stream == nil {
		var err error
		stream, err = core.NewStream(old.w, old.h, opts)
		if err != nil {
			return fmt.Errorf("fresh stream: %w", err)
		}
	}
	meta := resumeMeta(stream, old.restored, old.incarnation+1)

	m.mu.Lock()
	if m.closed || m.sessions[old.id] != old {
		// Shutdown began, or the id was closed/replaced while we were
		// loading. Not an error — there is nothing left to resurrect.
		m.mu.Unlock()
		return nil
	}
	m.memUsed -= old.memBytes
	ns := m.installLocked(old.id, stream, opts, stream.MemFootprint(), meta)
	m.restartLog = append(m.restartLog, RestartEvent{
		ID:              old.id,
		Incarnation:     ns.incarnation,
		ResumedFrames:   meta.resumedFrames,
		ResumedCoverage: meta.resumedCoverage,
		FromCheckpoint:  fromCkpt,
		Time:            now,
	})
	if len(m.restartLog) > maxRestartLog {
		m.restartLog = m.restartLog[len(m.restartLog)-maxRestartLog:]
	}
	m.mu.Unlock()

	old.closeIntake() // stale handles: Feed already returns ErrFailed
	m.restarts.Inc()
	m.logf("session %q: restarted as incarnation %d (resumed %d frames, %.2f%% coverage, from_checkpoint=%v)",
		old.id, ns.incarnation, meta.resumedFrames, meta.resumedCoverage*100, fromCkpt)
	go ns.loop()
	return nil
}

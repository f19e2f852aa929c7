package session

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bgbuster/bgbuster/internal/core"
	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/session/stats"
)

// ErrManagerClosed is returned by Open, Feed and Restore once
// Manager.Close has begun. It wraps ErrClosed, so existing
// errors.Is(err, ErrClosed) checks keep matching while callers that
// care can distinguish a closed manager from one session's closed
// intake.
var ErrManagerClosed = fmt.Errorf("%w: manager closed", ErrClosed)

// ErrFleetFull is the admission-control rejection from Open/Restore
// when Config.MaxSessions open sessions already exist.
var ErrFleetFull = errors.New("session: fleet full")

// ErrMemoryBudget is the admission-control rejection from Open/Restore
// when registering the stream would push the fleet's summed
// StreamReconstructor.MemFootprint past Config.MemBudget.
var ErrMemoryBudget = errors.New("session: memory budget exhausted")

// ErrNoSession is returned by Manager.Feed for an id with no open
// session (never opened, closed, or evicted).
var ErrNoSession = errors.New("session: no such session")

// Config tunes the Manager. The zero value is usable: 32-frame queues,
// drop-oldest intake, no idle eviction, no admission limits, no
// auto-restart.
type Config struct {
	// QueueDepth bounds each session's queue in batches (a Feed frame is
	// a batch of one); when it is full, the oldest queued batch is
	// dropped to admit the new one (non-positive: 32).
	QueueDepth int

	// MaxSessions caps the number of concurrently open sessions; Open
	// and Restore past the cap return ErrFleetFull (0: unlimited).
	MaxSessions int
	// MemBudget caps the fleet's summed admission-time
	// StreamReconstructor.MemFootprint in bytes; Open and Restore past
	// it return ErrMemoryBudget (0: unlimited).
	MemBudget int64

	// IdleTimeout evicts sessions that have not been fed for this
	// long, checked every IdleTimeout/4 (at least 5ms, at most 1s).
	// Zero disables eviction.
	IdleTimeout time.Duration
	// Checkpoints, when set, makes every session durably checkpoint its
	// stream: periodically while live (CheckpointInterval), and once
	// more after Finalize — which covers eviction, so an idle-swept call
	// can be resumed by Manager.Restore after a restart. Nil disables
	// checkpointing entirely.
	Checkpoints CheckpointStore
	// CheckpointInterval paces the periodic per-session checkpoints
	// (non-positive: 5s). Its magnitude bounds how many frames a crash
	// can lose. Each checkpoint makes up to three Save attempts; when
	// all fail, the session keeps the last good checkpoint in the
	// store, degrades its health, and keeps processing frames.
	CheckpointInterval time.Duration

	// AutoRestart arms the supervisor: a Failed session is resurrected
	// from its last good checkpoint (or fresh, if none exists) as a new
	// incarnation under the same id, with capped exponential backoff
	// between attempts and a sliding-window circuit breaker
	// (DESIGN.md §13).
	AutoRestart bool
	// MaxRestarts is the circuit-breaker cap: once an id has been
	// restarted this many times within one minute, the next trigger
	// trips the breaker and the session becomes PermanentlyFailed
	// (non-positive: 5).
	MaxRestarts int

	// MaxImpulseNoise, when > 0, is the decode-quality gate: frames
	// whose vidstream.ImpulseNoise score exceeds it are rejected
	// (counted in FramesGated and FramesRejected) before their corrupted
	// pixels can be claimed as residue. Malformed frames (nil, wrong
	// geometry) bypass the gate and are rejected by the reconstructor's
	// own frame-fault taxonomy. 0 disables the gate.
	MaxImpulseNoise float64

	// StallTimeout, when > 0, arms the manager watchdog: a session with
	// no feed or processing activity for this long (and not yet
	// finalized) is marked degraded as stalled. Detection only — a
	// stalled call is never killed, it may still recover.
	StallTimeout time.Duration
	// CloseTimeout bounds how long Manager.Close waits for the fleet to
	// drain; sessions still running at the deadline are abandoned
	// (degraded, reported in Close's error). 0 waits indefinitely.
	CloseTimeout time.Duration

	// Logf, when set, receives human-readable degradation events:
	// checkpoint failures, health transitions, watchdog stalls,
	// restarts, breaker trips. Nil discards them. Must be safe for
	// concurrent use.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 32
	}
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = 5 * time.Second
	}
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = 5
	}
	return c
}

// minScanPeriod floors the idle sweep and watchdog periods, so a tiny
// timeout never asks for a zero or runaway ticker.
const minScanPeriod = 5 * time.Millisecond

// restoreConcurrency bounds how many checkpoints Restore loads and
// decodes in parallel. Registration stays serial in id order, so which
// sessions are shed under admission limits is deterministic.
const restoreConcurrency = 4

// RestartEvent is one supervisor resurrection, recorded in the
// manager's bounded restart log (RestartEvents).
type RestartEvent struct {
	// ID is the resurrected session id; Incarnation is the new
	// incarnation number (the first restart produces incarnation 2).
	ID          string
	Incarnation int
	// ResumedFrames and ResumedCoverage are the stream's cumulative
	// frame counter and coverage fraction at the moment of resurrection
	// — the last-good checkpoint's state, or zero for a fresh restart.
	ResumedFrames   uint64
	ResumedCoverage float64
	// FromCheckpoint reports whether a stored checkpoint was resumed
	// (false: no checkpoint existed and the incarnation started fresh).
	FromCheckpoint bool
	Time           time.Time
}

// maxRestartLog bounds the retained restart events; the counters carry
// magnitudes beyond it.
const maxRestartLog = 512

// Manager multiplexes many live reconstruction sessions. All methods
// are safe for concurrent use.
type Manager struct {
	cfg Config

	// stop is closed by Close; bg counts the background checks (idle
	// sweep, watchdog, supervisor) still running.
	stop       chan struct{}
	bg         sync.WaitGroup
	closedFlag atomic.Bool

	mu         sync.Mutex
	sessions   map[string]*Session
	closed     bool
	memUsed    uint64 // summed admission-time footprints of open sessions
	restartLog []RestartEvent

	opened       stats.Counter
	closedCnt    stats.Counter
	evictions    stats.Counter
	panics       stats.Counter
	restores     stats.Counter
	restarts     stats.Counter
	breakerTrips stats.Counter
	degrades     stats.Counter
	stalls       stats.Counter
	abandoned    stats.Counter
	shed         stats.Counter // admission rejections (fleet-full + memory-budget)

	failedCh chan struct{} // wakes the supervisor on a worker failure
}

// logf forwards a degradation event to Config.Logf, if any.
func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// noteFailed wakes the supervisor without blocking; a missed wake is
// harmless (the periodic scan catches up).
func (m *Manager) noteFailed() {
	if m.failedCh == nil {
		return
	}
	select {
	case m.failedCh <- struct{}{}:
	default:
	}
}

// NewManager returns a running Manager; Close releases it. Each
// background check runs only when its setting is on: cfg.IdleTimeout
// starts the idle sweep, cfg.StallTimeout the watchdog and
// cfg.AutoRestart the supervisor (supervisor.go).
func NewManager(cfg Config) *Manager {
	m := &Manager{
		cfg:      cfg.withDefaults(),
		sessions: map[string]*Session{},
		stop:     make(chan struct{}),
	}
	if m.cfg.IdleTimeout > 0 {
		// A quarter of the idle timeout, at most 1s and at least minScanPeriod.
		m.every(min(max(m.cfg.IdleTimeout/4, minScanPeriod), time.Second), nil, m.sweep)
	}
	if m.cfg.StallTimeout > 0 {
		m.every(max(m.cfg.StallTimeout/4, minScanPeriod), nil, m.watchdog)
	}
	if m.cfg.AutoRestart {
		m.failedCh = make(chan struct{}, 1)
		recs := map[string]*restartRec{} // owned by the supervisor's goroutine
		m.every(supervisorInterval, m.failedCh, func() { m.supervise(recs) })
	}
	return m
}

// every runs step on its own goroutine once per period, and early on
// each receive from wake (nil: never), until Close. Each check gets its
// own goroutine so a slow step — an eviction's blocking Close — never
// delays another.
func (m *Manager) every(period time.Duration, wake <-chan struct{}, step func()) {
	m.bg.Add(1)
	go func() {
		defer m.bg.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-wake:
			case <-t.C:
			}
			step()
		}
	}()
}

// Open starts a live session reconstructing a call of the given frame
// geometry. opts follows core.NewStream (VBKnownImage or
// VBUnknownImage). The id must be unique among open sessions.
// Admission control applies: past Config.MaxSessions it returns
// ErrFleetFull, past Config.MemBudget it returns ErrMemoryBudget.
func (m *Manager) Open(id string, w, h int, opts core.Options) (*Session, error) {
	stream, err := core.NewStream(w, h, opts)
	if err != nil {
		return nil, fmt.Errorf("session %q: %w", id, err)
	}
	return m.register(id, stream, opts, regMeta{incarnation: 1})
}

// admitLocked is the admission decision for one new session of
// footprint fp bytes. Caller holds m.mu.
func (m *Manager) admitLocked(id string, fp uint64) error {
	if m.closed {
		return fmt.Errorf("session %q: %w", id, ErrManagerClosed)
	}
	if _, dup := m.sessions[id]; dup {
		return fmt.Errorf("session %q: %w", id, ErrExists)
	}
	if m.cfg.MaxSessions > 0 && len(m.sessions) >= m.cfg.MaxSessions {
		return fmt.Errorf("session %q: %w (%d open, max %d)", id, ErrFleetFull, len(m.sessions), m.cfg.MaxSessions)
	}
	if m.cfg.MemBudget > 0 && m.memUsed+fp > uint64(m.cfg.MemBudget) {
		return fmt.Errorf("session %q: %w (%d in use + %d needed > budget %d)",
			id, ErrMemoryBudget, m.memUsed, fp, m.cfg.MemBudget)
	}
	return nil
}

// regMeta carries the provenance a new session must be fully labelled
// with BEFORE it becomes visible to observers: installLocked writes
// every field before the map insert, so a concurrent Stats/Snapshot can
// never see a half-initialized session (the restored flag and resume
// floors are read without the manager lock).
type regMeta struct {
	restored        bool
	incarnation     int
	resumedFrames   uint64
	resumedCoverage float64
}

// resumeMeta labels a resumed stream. Its resume floor is the stream's
// own frame counter and coverage before it takes a frame: the
// checkpoint's state, or zero for a fresh stream. Restore,
// ResumeSession and the supervisor all label through it.
func resumeMeta(stream *core.StreamReconstructor, restored bool, incarnation int) regMeta {
	return regMeta{
		restored:        restored,
		incarnation:     incarnation,
		resumedFrames:   uint64(stream.Frames()),
		resumedCoverage: stream.Snapshot().Coverage.Fraction(),
	}
}

// register installs a (new or resumed) stream as a running session,
// applying admission control.
func (m *Manager) register(id string, stream *core.StreamReconstructor, opts core.Options, meta regMeta) (*Session, error) {
	fp := stream.MemFootprint()
	m.mu.Lock()
	if err := m.admitLocked(id, fp); err != nil {
		m.mu.Unlock()
		if errors.Is(err, ErrFleetFull) || errors.Is(err, ErrMemoryBudget) {
			m.shed.Inc()
		}
		return nil, err
	}
	s := m.installLocked(id, stream, opts, fp, meta)
	m.mu.Unlock()
	m.opened.Inc()
	if meta.restored {
		m.restores.Inc()
	}
	go s.loop()
	return s, nil
}

// installLocked creates the Session record and accounts its footprint.
// Caller holds m.mu and has passed admission. Every field — including
// the provenance meta read by lock-free observers — is written before
// the session is published into the map: once another goroutine can
// reach the session through m.sessions, it is fully initialized.
func (m *Manager) installLocked(id string, stream *core.StreamReconstructor, opts core.Options, fp uint64, meta regMeta) *Session {
	s := newSession(m, id, stream, m.cfg.QueueDepth)
	s.opts = opts
	s.incarnation = meta.incarnation
	s.memBytes = fp
	s.restored = meta.restored
	s.resumedFrames = meta.resumedFrames
	s.resumedCov = meta.resumedCoverage
	m.sessions[id] = s // publish last: observers may now reach s
	m.memUsed += fp
	return s
}

// RestoreError reports one session id Manager.Restore could not
// resume. The underlying cause is reachable through Unwrap, so
// errors.Is(err, ErrExists), errors.Is(err, ErrFleetFull) and friends
// keep working on the joined error Restore returns.
type RestoreError struct {
	// ID is the session id whose checkpoint was quarantined or shed.
	ID string
	// Err is the load/decode/register failure.
	Err error
	// Shed marks an admission-control rejection (ErrFleetFull or
	// ErrMemoryBudget): the checkpoint is intact and untouched in the
	// store, the fleet just could not afford it right now.
	Shed bool
}

func (e *RestoreError) Error() string {
	if e.Shed {
		return fmt.Sprintf("restore %q: shed: %v", e.ID, e.Err)
	}
	return fmt.Sprintf("restore %q: %v", e.ID, e.Err)
}

func (e *RestoreError) Unwrap() error { return e.Err }

// Restore resumes every checkpointed session in Config.Checkpoints —
// the restart path of a live fleet: each stored .bbck is decoded with
// core.ResumeStream and re-registered under its original id, so the
// caller can keep feeding the same calls where they left off,
// bit-identically (DESIGN.md §11). optsFor supplies the reconstruction
// options for each session id; they must match the options the
// checkpoint was written under (the embedded fingerprint is verified).
//
// Loading and decoding run at most restoreConcurrency at a time;
// registration is serial in sorted id order and subject to admission
// control, so a fleet restarting over its limits sheds the same ids
// every time. Restore returns the
// sessions it managed to resume even when some ids fail — a corrupt or
// mismatched checkpoint is quarantined: that id is skipped, a
// *RestoreError naming it joins the returned error, and the stored
// bytes are left untouched in the store for inspection (never deleted
// or overwritten by Restore itself). Ids already open are skipped the
// same way (ErrExists), and ids past Config.MaxSessions/MemBudget are
// shed with RestoreError.Shed set (wrapping ErrFleetFull or
// ErrMemoryBudget), so Restore is safe to call at any point.
func (m *Manager) Restore(optsFor func(id string) core.Options) ([]*Session, error) {
	if m.closedFlag.Load() {
		return nil, fmt.Errorf("manager: restore: %w", ErrManagerClosed)
	}
	if m.cfg.Checkpoints == nil {
		return nil, errors.New("manager: no checkpoint store configured")
	}
	ids, err := m.cfg.Checkpoints.List()
	if err != nil {
		return nil, fmt.Errorf("manager: restore: %w", err)
	}
	sort.Strings(ids) // deterministic shed order, whatever the store returns
	type decoded struct {
		stream *core.StreamReconstructor
		opts   core.Options
		err    error
	}
	results := make([]decoded, len(ids))
	sem := make(chan struct{}, restoreConcurrency)
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			data, err := m.cfg.Checkpoints.Load(id)
			if err != nil {
				results[i].err = err
				return
			}
			opts := optsFor(id)
			stream, err := core.ResumeStream(data, opts)
			if err != nil {
				results[i].err = err
				return
			}
			results[i].stream, results[i].opts = stream, opts
		}(i, id)
	}
	wg.Wait()

	var (
		out  []*Session
		errs []error
	)
	for i, id := range ids {
		if results[i].err != nil {
			m.logf("session %q: checkpoint quarantined: %v", id, results[i].err)
			errs = append(errs, &RestoreError{ID: id, Err: results[i].err})
			continue
		}
		s, err := m.register(id, results[i].stream, results[i].opts, resumeMeta(results[i].stream, true, 1))
		if err != nil {
			shed := errors.Is(err, ErrFleetFull) || errors.Is(err, ErrMemoryBudget)
			if shed {
				m.logf("session %q: restore shed: %v", id, err)
			}
			errs = append(errs, &RestoreError{ID: id, Err: err, Shed: shed})
			continue
		}
		out = append(out, s)
	}
	return out, errors.Join(errs...)
}

// ResumeSession registers one session resumed from raw checkpoint
// bytes — the receiving half of a live migration: the source shard
// detaches a session to canonical .bbck bytes (Session.Detach), the
// bytes travel over the wire, and the destination calls ResumeSession
// to carry the stream on bit-identically. opts must match the
// checkpoint's embedded options fingerprint. Admission control applies
// exactly as in Restore; the configured CheckpointStore is not
// consulted or written.
func (m *Manager) ResumeSession(id string, data []byte, opts core.Options) (*Session, error) {
	if m.closedFlag.Load() {
		return nil, fmt.Errorf("session %q: %w", id, ErrManagerClosed)
	}
	stream, err := core.ResumeStream(data, opts)
	if err != nil {
		return nil, fmt.Errorf("session %q: resume: %w", id, err)
	}
	return m.register(id, stream, opts, resumeMeta(stream, true, 1))
}

// Get returns the current incarnation of the open session with the
// given id.
func (m *Manager) Get(id string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	return s, ok
}

// Feed routes one frame to the current incarnation of id as a batch
// of one (see FeedN).
func (m *Manager) Feed(id string, frame *imagex.Image, oracle *imagex.Mask) error {
	return m.FeedN(id, []core.Frame{{Img: frame, Oracle: oracle}})
}

// FeedN routes an ordered frame batch to the current incarnation of id
// (see Session.FeedN for the batch semantics) — the supervisor-friendly
// intake: after an auto-restart, stale *Session handles return
// ErrFailed while Manager.FeedN reaches the live incarnation. It
// returns ErrManagerClosed after Close and ErrNoSession for unknown ids.
func (m *Manager) FeedN(id string, frames []core.Frame) error {
	if m.closedFlag.Load() {
		return fmt.Errorf("session %q: %w", id, ErrManagerClosed)
	}
	s, ok := m.Get(id)
	if !ok {
		return fmt.Errorf("session %q: %w", id, ErrNoSession)
	}
	return s.FeedN(frames)
}

// Len returns the number of open sessions.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// MemUsed returns the fleet's summed admission-time stream footprints
// in bytes — the quantity admission control compares to
// Config.MemBudget.
func (m *Manager) MemUsed() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.memUsed
}

// RestartEvents returns a copy of the bounded supervisor restart log,
// oldest first.
func (m *Manager) RestartEvents() []RestartEvent {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]RestartEvent(nil), m.restartLog...)
}

// remove unregisters s if it is still the session registered under id,
// releasing its memory-budget share.
func (m *Manager) remove(id string, s *Session) {
	m.mu.Lock()
	if cur, ok := m.sessions[id]; ok && cur == s {
		delete(m.sessions, id)
		m.memUsed -= s.memBytes
		m.mu.Unlock()
		m.closedCnt.Inc()
		return
	}
	m.mu.Unlock()
}

// list copies the current session set.
func (m *Manager) list() []*Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		out = append(out, s)
	}
	return out
}

// sweep is the idle-eviction check: it closes every session whose last
// Feed is older than IdleTimeout.
func (m *Manager) sweep() {
	deadline := time.Now().Add(-m.cfg.IdleTimeout).UnixNano()
	for _, s := range m.list() {
		if s.lastFeed.Load() < deadline {
			s.evicted.Store(true)
			m.evictions.Inc()
			_ = s.Close() // finalizes; panic (if any) already counted
		}
	}
}

// watchdog is the stalled-stream check: a session with no feed or
// processing activity for StallTimeout (and whose worker has not yet
// exited) is marked degraded. The latch resets on the next Feed, so
// distinct stall episodes are counted separately, while health stays
// monotonically degraded (DESIGN.md §12).
func (m *Manager) watchdog() {
	deadline := time.Now().Add(-m.cfg.StallTimeout).UnixNano()
	for _, s := range m.list() {
		select {
		case <-s.done:
			continue // finalized or failed; not a stall
		default:
		}
		active := max(s.lastFeed.Load(), s.lastProc.Load())
		if active < deadline && s.stallLatch.CompareAndSwap(false, true) {
			m.stalls.Inc()
			s.stalls.Inc()
			s.degrade(fmt.Sprintf("stalled: no stream activity for %s", m.cfg.StallTimeout))
		}
	}
}

// Close stops the background checks (idle sweep, watchdog, supervisor)
// and finalizes every open session. The manager accepts no new sessions
// afterwards; Close is idempotent. When Config.CloseTimeout is set,
// Close waits at most that long for the whole fleet to drain: sessions
// still running at the deadline are abandoned — marked degraded,
// counted, reported in the returned error — instead of wedging shutdown
// on one stuck call. The returned error joins per-session failures
// (panics, fatal errors, abandonments); a clean shutdown returns nil.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	m.closedFlag.Store(true)
	close(m.stop)
	m.bg.Wait()
	sessions := m.list()
	for _, s := range sessions {
		s.closeIntake()
	}
	var deadline <-chan time.Time // nil: blocks forever (no timeout)
	if m.cfg.CloseTimeout > 0 {
		timer := time.NewTimer(m.cfg.CloseTimeout)
		defer timer.Stop()
		deadline = timer.C
	}
	var errs []error
	expired := false
	for _, s := range sessions {
		if !expired {
			select {
			case <-s.done:
			case <-deadline:
				expired = true
			}
		}
		if expired {
			select {
			case <-s.done:
				// Finished just in time; fall through to normal handling.
			default:
				m.abandoned.Inc()
				s.degrade("abandoned: manager close deadline exceeded")
				errs = append(errs, fmt.Errorf("session %q: close deadline exceeded", s.id))
				m.remove(s.id, s)
				continue
			}
		}
		if f := s.Failure(); f != "" {
			errs = append(errs, fmt.Errorf("session %q: %w: %s", s.id, ErrFailed, f))
		}
		m.remove(s.id, s)
	}
	return errors.Join(errs...)
}

// ManagerSnapshot is an instantaneous view of the manager and all its
// open sessions.
type ManagerSnapshot struct {
	// Open is the number of currently open sessions.
	Open int
	// Opened/Closed/Evicted/Panics/Restored are monotonic lifetime
	// counters; Restored counts sessions resumed by Manager.Restore
	// (each also counts in Opened). Restarts counts supervisor
	// resurrections (new incarnations; not counted in Opened), and
	// BreakerTrips counts circuit-breaker trips to PermanentlyFailed.
	Opened       uint64
	Closed       uint64
	Evicted      uint64
	Panics       uint64
	Restored     uint64
	Restarts     uint64
	BreakerTrips uint64
	// Shed counts admission rejections (ErrFleetFull + ErrMemoryBudget).
	Shed uint64
	// MemUsed is the fleet's summed admission-time stream footprints;
	// MemBudget echoes Config.MemBudget (0: unlimited).
	MemUsed   uint64
	MemBudget int64
	// Degraded counts healthy→degraded transitions fleet-wide; Stalls
	// counts watchdog-detected stall episodes; Abandoned counts
	// sessions given up on at the Close deadline.
	Degraded  uint64
	Stalls    uint64
	Abandoned uint64
	// HealthyNow/DegradedNow/FailedNow/PermanentlyFailedNow break the
	// open sessions down by current health state (they sum to Open).
	HealthyNow           int
	DegradedNow          int
	FailedNow            int
	PermanentlyFailedNow int
	// Sessions holds one snapshot per open session, ordered by ID.
	Sessions []Snapshot
}

// Stats assembles a snapshot of every open session without stopping
// any of them.
func (m *Manager) Stats() ManagerSnapshot {
	sessions := m.list()
	snap := ManagerSnapshot{
		Open:         len(sessions),
		Opened:       m.opened.Load(),
		Closed:       m.closedCnt.Load(),
		Evicted:      m.evictions.Load(),
		Panics:       m.panics.Load(),
		Restored:     m.restores.Load(),
		Restarts:     m.restarts.Load(),
		BreakerTrips: m.breakerTrips.Load(),
		Shed:         m.shed.Load(),
		MemUsed:      m.MemUsed(),
		MemBudget:    m.cfg.MemBudget,
		Degraded:     m.degrades.Load(),
		Stalls:       m.stalls.Load(),
		Abandoned:    m.abandoned.Load(),
	}
	for _, s := range sessions {
		st := s.Stats()
		switch st.Health {
		case Healthy:
			snap.HealthyNow++
		case Degraded:
			snap.DegradedNow++
		case Failed:
			snap.FailedNow++
		case PermanentlyFailed:
			snap.PermanentlyFailedNow++
		}
		snap.Sessions = append(snap.Sessions, st)
	}
	sort.Slice(snap.Sessions, func(i, j int) bool { return snap.Sessions[i].ID < snap.Sessions[j].ID })
	return snap
}

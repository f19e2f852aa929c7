// Package session is the live-call layer of the reconstruction
// framework: a Manager multiplexes many concurrent streaming
// reconstructions (core.StreamReconstructor), one per observed call.
// Each session owns a bounded frame queue with a drop-oldest policy —
// a live adversary that falls behind loses old frames, never the call —
// a worker goroutine that feeds the reconstructor, panic isolation so
// one poisoned call cannot take down its neighbours, and an
// observability surface (per-stage counters, feed latency, coverage)
// readable at any instant without pausing the session.
package session

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bgbuster/bgbuster/internal/core"
	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/session/stats"
	"github.com/bgbuster/bgbuster/internal/vidstream"
)

// ErrClosed is returned when feeding a session whose intake has been
// closed (Finalize, Close, eviction) or opening on a closed Manager.
var ErrClosed = errors.New("session: closed")

// ErrExists is returned by Open for a duplicate session id.
var ErrExists = errors.New("session: id already open")

// ErrFailed is returned when feeding a session whose worker died on a
// panic; the partial reconstruction up to the panic stays readable.
var ErrFailed = errors.New("session: worker failed")

// Session is one live call being reconstructed. Feed never blocks on
// the reconstruction: batches queue up to Config.QueueDepth and the
// oldest queued batch is dropped when the queue is full. All methods
// are safe for concurrent use.
type Session struct {
	id   string
	mgr  *Manager
	w, h int // stream frame geometry, for the quality gate

	// Supervision identity (immutable after install): the options the
	// stream was opened with (what a restart resurrects from), the
	// incarnation number (1 = original; each supervisor restart
	// registers incarnation+1 under the same id), and the admission-time
	// memory footprint charged to Config.MemBudget.
	opts        core.Options
	incarnation int
	memBytes    uint64
	// resumedFrames/resumedCov record the checkpoint state this
	// incarnation resumed from (zero when the stream started fresh).
	resumedFrames uint64
	resumedCov    float64

	// Intake: sendMu serialises queue sends against intake close. A
	// queue element is one ordered batch; a Feed frame is a batch of one.
	sendMu       sync.Mutex
	queue        chan []core.Frame
	intakeClosed bool

	// streamMu guards the reconstructor (worker writes, observers read).
	streamMu sync.Mutex
	stream   *core.StreamReconstructor

	started  time.Time
	lastFeed atomic.Int64 // UnixNano of the most recent Feed
	lastProc atomic.Int64 // UnixNano of the most recent processed frame

	fed       stats.Counter
	dropped   stats.Counter
	rejected  stats.Counter
	gated     stats.Counter // quality-gate rejections (subset of rejected)
	processed stats.Counter
	feedLat   stats.Latency
	pinnedNs  atomic.Int64 // identify-pin latency; 0 until pinned

	// Health state machine (health.go): Healthy → Degraded → Failed.
	health     atomic.Int32
	reasonMu   sync.Mutex
	reasons    []string
	stallLatch atomic.Bool   // set while the watchdog considers the session stalled
	stalls     stats.Counter // stall episodes detected by the watchdog

	// Durability telemetry (zero when no CheckpointStore configured).
	ckpts          stats.Counter
	ckptErrs       stats.Counter // failed Save attempts (every retry counts)
	ckptRetries    stats.Counter // retries beyond the first attempt
	ckptFailStreak atomic.Uint32 // consecutive exhausted checkpoint cycles
	lastCkptNs     atomic.Int64  // UnixNano of the last successful checkpoint
	ckptTryNs      atomic.Int64  // UnixNano of the last attempt, or of the start (paces retries)
	restored       bool          // came from Manager.Restore, not Open

	done     chan struct{} // closed when the worker exits
	failure  atomic.Value  // string; set when the worker panicked or hit a fatal error
	evicted  atomic.Bool
	detached atomic.Bool // Detach in progress: loop must not finalize
}

func newSession(mgr *Manager, id string, stream *core.StreamReconstructor, queueDepth int) *Session {
	s := &Session{
		id:      id,
		mgr:     mgr,
		queue:   make(chan []core.Frame, queueDepth),
		stream:  stream,
		started: time.Now(),
		done:    make(chan struct{}),
	}
	s.w, s.h = stream.Size()
	s.lastFeed.Store(s.started.UnixNano())
	s.lastProc.Store(s.started.UnixNano())
	// The periodic checkpoint pace runs from the session's start, so the
	// first one falls due one CheckpointInterval in, not on frame one.
	s.ckptTryNs.Store(s.started.UnixNano())
	return s
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// Incarnation returns the supervisor lineage number for this id:
// 1 for the original session, +1 per auto-restart.
func (s *Session) Incarnation() int { return s.incarnation }

// Feed enqueues one frame as a batch of one (see FeedN). After
// Manager.Close begins, Feed returns ErrManagerClosed; after the
// supervisor replaced this incarnation, the stale handle returns
// ErrFailed (route through Manager.Feed to always reach the live
// incarnation). The session does not copy the frame or oracle; the
// caller must not mutate them afterwards. Malformed frames (wrong
// geometry, nil oracle) are not detected here but at processing time,
// where they are counted as FramesRejected and the session carries on.
func (s *Session) Feed(frame *imagex.Image, oracle *imagex.Mask) error {
	return s.FeedN([]core.Frame{{Img: frame, Oracle: oracle}})
}

// FeedN enqueues an ordered batch of frames as one queue unit, the
// session's only intake unit. It never blocks: when the queue is full
// the oldest queued batch is dropped — and all of its frames counted in
// Stats as FramesDropped — to admit the new one. A batch takes one
// queue slot and one send, amortising the per-frame queue overhead for
// replay and catch-up traffic, where frames arrive faster than real
// time. The error and ownership contract is Feed's. An empty batch is a
// no-op.
func (s *Session) FeedN(frames []core.Frame) error {
	if len(frames) == 0 {
		return nil
	}
	if s.mgr.closedFlag.Load() {
		return fmt.Errorf("session %q: %w", s.id, ErrManagerClosed)
	}
	if s.Failure() != "" {
		return fmt.Errorf("session %q: %w", s.id, ErrFailed)
	}
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	if s.intakeClosed {
		return fmt.Errorf("session %q: %w", s.id, ErrClosed)
	}
	s.lastFeed.Store(time.Now().UnixNano())
	s.stallLatch.Store(false) // activity: a new stall episode may be detected later
	s.fed.Add(uint64(len(frames)))
	select {
	case s.queue <- frames:
		return nil
	default:
	}
	// Drop-oldest: evict the oldest queued batch, then retry once. The
	// receive races with the worker; if the worker drained a slot
	// first, the send below succeeds and nothing is dropped twice.
	select {
	case victim := <-s.queue:
		s.dropped.Add(uint64(len(victim)))
	default:
	}
	select {
	case s.queue <- frames:
	default:
		s.dropped.Add(uint64(len(frames))) // lost the race to a concurrent feeder; drop the new batch
	}
	return nil
}

// loop is the session worker: it drains the queue into the
// reconstructor and finalizes the stream when the intake closes. A
// panic in the reconstruction pipeline — or a fatal (non-frame) stream
// error — marks the session Failed without disturbing other sessions.
func (s *Session) loop() {
	defer close(s.done)
	defer func() {
		if r := recover(); r != nil {
			s.failure.Store(fmt.Sprintf("%v", r))
			s.fail(fmt.Sprintf("worker panic: %v", r))
			s.mgr.panics.Inc()
		}
	}()
	for frames := range s.queue {
		if s.process(frames) {
			// Fatal: stop draining. Feed already returns ErrFailed (the
			// failure value is set); the partial reconstruction stays
			// readable, exactly like the panic path.
			return
		}
	}
	if s.detached.Load() {
		// Detach drained the queue but must not finalize: the stream is
		// about to resume mid-call on another shard, and Finalize would
		// pin identification and close the pending window early.
		return
	}
	func() {
		s.streamMu.Lock()
		defer s.streamMu.Unlock() // a panic here must not wedge observers either
		_ = s.stream.Finalize()
	}()
	// Final checkpoint: the finalized state is what Manager.Restore
	// hands back after a restart, and it is also how eviction preserves
	// every accumulated LB pixel (the sweeper closes the session, which
	// drains into this path).
	if s.mgr.cfg.Checkpoints != nil {
		_ = s.checkpoint()
	}
}

// process runs one queued batch, gating and then feeding each frame in
// arrival order. Gate rejections and recoverable stream rejections
// count per frame, and each frame that reaches the reconstructor
// records its own feed latency. Each frame is fed under streamMu with a
// deferred unlock, so a panicking pipeline (isolated in loop's recover)
// cannot leave the lock held and wedge every observer, and observers
// never wait behind a whole batch. The failure transition is applied
// after the batch, so a user Logf callback that snapshots the session
// can never deadlock. It reports whether the session hit a fatal error
// and must stop.
func (s *Session) process(frames []core.Frame) (fatal bool) {
	s.lastProc.Store(time.Now().UnixNano())
	var (
		accepted, rejected, gatedN int
		fatalErr                   error
		identified                 bool
	)
feed:
	for _, f := range frames {
		if err := s.gate(f); err != nil {
			gatedN++
			rejected++
			continue
		}
		t0 := time.Now()
		var err error
		func() {
			s.streamMu.Lock()
			defer s.streamMu.Unlock()
			err = s.stream.Feed(f.Img, f.Oracle)
			identified = s.stream.Identified()
		}()
		s.feedLat.Observe(time.Since(t0))
		switch {
		case err == nil:
			accepted++
		case core.RecoverableFrame(err):
			// One bad frame is counted and skipped; the stream carries on
			// (the paper's LB residue accumulates over many frames, so a
			// rejected frame only costs its own residue).
			rejected++
		default:
			// Non-frame errors mean the stream itself is unusable; the
			// frames after this one are never attempted.
			fatalErr = err
			break feed
		}
	}
	s.gated.Add(uint64(gatedN))
	s.rejected.Add(uint64(rejected))
	s.processed.Add(uint64(accepted))
	if identified && s.pinnedNs.Load() == 0 {
		s.pinnedNs.Store(int64(time.Since(s.started)))
	}
	if fatalErr != nil {
		s.failure.Store(fmt.Sprintf("fatal stream error: %v", fatalErr))
		s.fail(fmt.Sprintf("fatal stream error: %v", fatalErr))
		return true
	}
	s.maybeCheckpoint()
	return false
}

// gate screens a frame's decode consistency before it reaches the
// reconstructor: with Config.MaxImpulseNoise set, a frame whose
// impulse-noise score exceeds it is rejected. Geometry and nil faults
// are left to the reconstructor (which classifies them as recoverable
// FrameErrors); the gate only judges content quality, so the two
// rejection layers never overlap.
func (s *Session) gate(f core.Frame) error {
	limit := s.mgr.cfg.MaxImpulseNoise
	if limit <= 0 || f.Img == nil || f.Img.W != s.w || f.Img.H != s.h {
		return nil // gate off, or the reconstructor rejects and classifies these
	}
	if score := vidstream.ImpulseNoise(f.Img, vidstream.DefaultImpulseTol); score > limit {
		return &core.FrameError{
			Fault: core.FaultQuality,
			Err:   fmt.Errorf("session %q: frame impulse-noise score %.4f exceeds gate %.4f", s.id, score, limit),
		}
	}
	return nil
}

// maybeCheckpoint writes a periodic checkpoint when one is due. It runs
// on the worker between frames, so a frame is never half-captured; the
// pace is CheckpointInterval since the last attempt (attempt, not
// success, so a broken store does not degrade into per-frame retries).
func (s *Session) maybeCheckpoint() {
	if s.mgr.cfg.Checkpoints == nil {
		return
	}
	now := time.Now().UnixNano()
	last := s.ckptTryNs.Load()
	if now-last < int64(s.mgr.cfg.CheckpointInterval) {
		return
	}
	if !s.ckptTryNs.CompareAndSwap(last, now) {
		return // a concurrent Checkpoint() call claimed this slot
	}
	_ = s.checkpoint()
}

// Checkpoint forces an immediate durable checkpoint of the session's
// stream, regardless of the periodic interval. It is safe to call at
// any instant — the stream is briefly locked, exactly like Snapshot.
func (s *Session) Checkpoint() error {
	if s.mgr.cfg.Checkpoints == nil {
		return fmt.Errorf("session %q: no checkpoint store configured", s.id)
	}
	s.ckptTryNs.Store(time.Now().UnixNano())
	return s.checkpoint()
}

// checkpointAttempts is the number of Save tries per checkpoint cycle;
// checkpointBackoff is the sleep before the first retry, doubled before
// each later one.
const (
	checkpointAttempts = 3
	checkpointBackoff  = 25 * time.Millisecond
)

// checkpoint serialises the stream under streamMu and saves the bytes
// outside the lock, so a slow store never stalls observers or the feed
// path longer than the encode itself. Save is tried up to
// checkpointAttempts times, sleeping checkpointBackoff and then twice
// that between tries; when the whole cycle fails the session falls
// back to the last good checkpoint already in the store, degrades its
// health, and keeps processing frames — durability trouble must never
// stop the reconstruction.
func (s *Session) checkpoint() error {
	data, err := s.CheckpointBytes()
	if err != nil {
		// Encode failures are deterministic: retrying cannot help.
		s.ckptErrs.Inc()
		s.noteCheckpointCycleFailure(1, err)
		return fmt.Errorf("session %q: checkpoint: %w", s.id, err)
	}
	for try := 1; ; try++ {
		err = s.mgr.cfg.Checkpoints.Save(s.id, data)
		if err == nil {
			s.ckpts.Inc()
			s.ckptFailStreak.Store(0)
			s.lastCkptNs.Store(time.Now().UnixNano())
			return nil
		}
		s.ckptErrs.Inc()
		if try >= checkpointAttempts {
			s.noteCheckpointCycleFailure(checkpointAttempts, err)
			return fmt.Errorf("session %q: checkpoint: %w", s.id, err)
		}
		s.ckptRetries.Inc()
		time.Sleep(checkpointBackoff << (try - 1))
	}
}

// noteCheckpointCycleFailure records one exhausted checkpoint cycle:
// the failure streak grows, the session degrades (the last good
// checkpoint in the store now bounds what a crash loses), and the
// failure is logged rather than silently dropped.
func (s *Session) noteCheckpointCycleFailure(attempts int, err error) {
	streak := s.ckptFailStreak.Add(1)
	s.mgr.logf("session %q: checkpoint failed after %d attempt(s) (streak %d, keeping last good checkpoint): %v",
		s.id, attempts, streak, err)
	s.degrade(fmt.Sprintf("checkpoint save failed after %d attempt(s): %v", attempts, err))
}

// closeIntake stops accepting frames; idempotent.
func (s *Session) closeIntake() {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	if !s.intakeClosed {
		s.intakeClosed = true
		close(s.queue)
	}
}

// Finalize closes the intake, waits for every queued frame to be
// processed and for the stream to finalize (pinning identification on
// short calls). The session stays registered and readable. Finalize is
// idempotent; it reports a worker panic as an error.
func (s *Session) Finalize() error {
	s.closeIntake()
	<-s.done
	if f := s.Failure(); f != "" {
		return fmt.Errorf("session %q: %w: %s", s.id, ErrFailed, f)
	}
	return nil
}

// Close finalizes the session and removes it from its manager. The
// returned *Session stays readable (Snapshot, Stats) after Close.
func (s *Session) Close() error {
	err := s.Finalize()
	s.mgr.remove(s.id, s)
	return err
}

// Drain blocks until every frame fed so far has finished processing
// (fed == dropped + rejected + processed), the worker exited, or the
// timeout passed. It does not close the intake — Drain is a barrier
// for a quiesced feeder (e.g. a coordinator that stopped routing
// frames to this session before migrating it); concurrent feeders can
// keep the session busy indefinitely. A non-positive timeout waits
// forever.
func (s *Session) Drain(timeout time.Duration) error {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for {
		select {
		case <-s.done:
			return nil // worker exited: nothing more will be processed
		default:
		}
		if s.fed.Load() == s.dropped.Load()+s.rejected.Load()+s.processed.Load() {
			return nil
		}
		if timeout > 0 && time.Now().After(deadline) {
			return fmt.Errorf("session %q: drain: timed out after %s", s.id, timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// CheckpointBytes serialises the stream's current state to canonical
// .bbck bytes without touching the configured CheckpointStore — the
// transport primitive behind coordinator-side checkpoint replication.
// The session keeps running; the bytes resume bit-identically via
// core.ResumeStream or Manager.ResumeSession.
func (s *Session) CheckpointBytes() ([]byte, error) {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	return s.stream.Checkpoint()
}

// Detach closes the intake, drains the queue, and serialises the live
// stream to canonical .bbck bytes — the sending half of live
// migration. Unlike Finalize, the stream is NOT finalized:
// identification stays un-pinned and the pending window stays open, so
// the destination shard (Manager.ResumeSession) carries the call on
// bit-identically even when the migration lands inside the
// identification window. The session is removed from its manager,
// releasing its admission budget; the bytes are returned rather than
// written to the checkpoint store. A worker that already failed
// returns ErrFailed with the recorded failure.
func (s *Session) Detach() ([]byte, error) {
	s.detached.Store(true)
	s.closeIntake()
	<-s.done
	defer s.mgr.remove(s.id, s)
	if f := s.Failure(); f != "" {
		return nil, fmt.Errorf("session %q: %w: %s", s.id, ErrFailed, f)
	}
	data, err := s.CheckpointBytes()
	if err != nil {
		return nil, fmt.Errorf("session %q: detach: %w", s.id, err)
	}
	return data, nil
}

// Failure returns the panic message that killed the worker, or "".
func (s *Session) Failure() string {
	if v := s.failure.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// Evicted reports whether the idle sweeper closed this session.
func (s *Session) Evicted() bool { return s.evicted.Load() }

// Snapshot returns a cloned point-in-time reconstruction: Recovered,
// Coverage, VBName, VBMode and DerivedCoverage.
func (s *Session) Snapshot() *core.Reconstruction {
	s.streamMu.Lock()
	defer s.streamMu.Unlock()
	r := s.stream.Snapshot()
	return &core.Reconstruction{
		Recovered:       r.Recovered.Clone(),
		Coverage:        r.Coverage.Clone(),
		VBName:          r.VBName,
		VBMode:          r.VBMode,
		DerivedCoverage: r.DerivedCoverage,
	}
}

// Snapshot is an instantaneous, internally consistent view of one
// session's counters and gauges.
type Snapshot struct {
	ID string

	// Intake counters: fed = dropped + rejected + processed + queued.
	FramesFed      uint64
	FramesDropped  uint64
	FramesRejected uint64
	// FramesGated counts quality-gate rejections — a subset of
	// FramesRejected (decode-inconsistent content screened out before
	// the reconstructor).
	FramesGated uint64
	// FramesProcessed counts frames the reconstructor accepted.
	FramesProcessed uint64

	// CoveragePct is the claimed RBRR (percent) at snapshot time.
	CoveragePct float64
	// DerivedCoverage is the unknown-VB derivation coverage in [0,1].
	DerivedCoverage float64

	// VBName and Identified reflect known-image identification;
	// IdentifyLatency is the wall time from session start to pin
	// (0 until pinned).
	VBName          string
	Identified      bool
	IdentifyLatency time.Duration

	// FeedLatency aggregates per-frame reconstruction latency.
	FeedLatency stats.LatencySummary

	// LastActivity is the most recent Feed (session start if never fed).
	LastActivity time.Time

	// StreamFrames is the reconstructor's cumulative frame counter. For
	// a session restored from a checkpoint it includes frames processed
	// before the restart, unlike FramesProcessed which counts only this
	// incarnation.
	StreamFrames uint64
	// MemBytes is the admission-time memory footprint charged against
	// Config.MemBudget (core.StreamReconstructor.MemFootprint at
	// registration) — the per-session denominator behind fleet density
	// figures like sessions per GB.
	MemBytes uint64
	// Restored reports the session came from Manager.Restore.
	Restored bool
	// Incarnation numbers the supervisor lineage for this id: 1 for the
	// original session, +1 per auto-restart (DESIGN.md §13).
	Incarnation int
	// ResumedFrames and ResumedCoverage are the checkpoint state this
	// incarnation resumed from — the floor its StreamFrames and coverage
	// start at. Zero when the stream started fresh.
	ResumedFrames   uint64
	ResumedCoverage float64
	// Checkpoints counts successful durable checkpoints; CheckpointErrors
	// counts failed attempts (encode or store; every retry counts).
	Checkpoints      uint64
	CheckpointErrors uint64
	// CheckpointSaveRetries counts Save retries beyond each cycle's
	// first attempt; CheckpointFailStreak is the current run of
	// consecutive exhausted cycles (0 after any success).
	CheckpointSaveRetries uint64
	CheckpointFailStreak  uint32
	// LastCheckpoint is when the newest durable checkpoint was saved
	// (zero time if never); its age bounds the frames a crash can lose.
	LastCheckpoint time.Time

	// Health is the degradation state (healthy/degraded/failed) and
	// HealthReasons the bounded transition log behind it; Stalls counts
	// watchdog-detected stall episodes.
	Health        Health
	HealthReasons []string
	Stalls        uint64

	Finalized bool
	Evicted   bool
	// Failure carries the worker panic or fatal-error message, if any.
	Failure string
}

// Stats assembles the session's observability snapshot. It is safe to
// call at any instant; it briefly locks the reconstructor to read the
// coverage gauge but never stops the intake.
func (s *Session) Stats() Snapshot {
	s.streamMu.Lock()
	r := s.stream.Snapshot()
	snap := Snapshot{
		ID:              s.id,
		CoveragePct:     r.Coverage.Fraction() * 100,
		DerivedCoverage: r.DerivedCoverage,
		VBName:          r.VBName,
		Identified:      s.stream.Identified(),
		Finalized:       s.stream.Finalized(),
		StreamFrames:    uint64(s.stream.Frames()),
	}
	s.streamMu.Unlock()
	snap.MemBytes = s.memBytes
	snap.Restored = s.restored
	snap.Incarnation = s.incarnation
	snap.ResumedFrames = s.resumedFrames
	snap.ResumedCoverage = s.resumedCov
	snap.Checkpoints = s.ckpts.Load()
	snap.CheckpointErrors = s.ckptErrs.Load()
	snap.CheckpointSaveRetries = s.ckptRetries.Load()
	snap.CheckpointFailStreak = s.ckptFailStreak.Load()
	if ns := s.lastCkptNs.Load(); ns != 0 {
		snap.LastCheckpoint = time.Unix(0, ns)
	}

	snap.Health = s.Health()
	snap.HealthReasons = s.HealthReasons()
	snap.Stalls = s.stalls.Load()

	snap.FramesFed = s.fed.Load()
	snap.FramesDropped = s.dropped.Load()
	snap.FramesRejected = s.rejected.Load()
	snap.FramesGated = s.gated.Load()
	snap.FramesProcessed = s.processed.Load()
	snap.IdentifyLatency = time.Duration(s.pinnedNs.Load())
	snap.FeedLatency = s.feedLat.Summary()
	snap.LastActivity = time.Unix(0, s.lastFeed.Load())
	snap.Evicted = s.evicted.Load()
	snap.Failure = s.Failure()
	return snap
}

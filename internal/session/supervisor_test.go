package session

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bgbuster/bgbuster/internal/core"
	"github.com/bgbuster/bgbuster/internal/faultinject"
	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/segment"
)

// bombSegmenter panics on exactly one frame: the fuse'th segmented
// frame. Every other frame delegates to the oracle segmenter, so a
// restarted incarnation (which shares the Options and therefore this
// segmenter) processes cleanly after the blast.
type bombSegmenter struct{ fuse *atomic.Int64 }

func (b bombSegmenter) Segment(frame *imagex.Image, oracle *imagex.Mask) *imagex.Mask {
	if b.fuse.Add(-1) == 0 {
		panic("bomb segmenter detonated")
	}
	return segment.OracleSegmenter{}.Segment(frame, oracle)
}

// poisonSegmenter panics on any frame in its set (pointer identity —
// the fault injector clones poisoned frames, so each poisoned delivery
// is a unique pointer that detonates exactly once).
type poisonSegmenter struct{ set map[*imagex.Image]bool }

func (p poisonSegmenter) Segment(frame *imagex.Image, oracle *imagex.Mask) *imagex.Mask {
	if p.set[frame] {
		panic("poisoned frame")
	}
	return segment.OracleSegmenter{}.Segment(frame, oracle)
}

// gateSegmenter blocks every frame until release is closed, so tests
// can hold the worker mid-frame and fill the queue deterministically.
type gateSegmenter struct{ release chan struct{} }

func (g gateSegmenter) Segment(frame *imagex.Image, oracle *imagex.Mask) *imagex.Mask {
	<-g.release
	return segment.OracleSegmenter{}.Segment(frame, oracle)
}

// feedAndSettle feeds one frame and waits until the worker consumed it
// (processed or rejected) or died — the serial-feed discipline that
// makes supervised chaos runs deterministic.
func feedAndSettle(t *testing.T, s *Session, f *imagex.Image, o *imagex.Mask) {
	t.Helper()
	before := s.processed.Load() + s.rejected.Load()
	if err := s.Feed(f, o); err != nil {
		t.Fatalf("feed: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s.processed.Load()+s.rejected.Load() > before {
			return
		}
		select {
		case <-s.done:
			return // worker died on this frame; the supervisor takes over
		default:
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatal("frame never settled")
}

// waitIncarnation waits for the supervisor to install an incarnation
// of id newer than old.
func waitIncarnation(t *testing.T, m *Manager, id string, old *Session) *Session {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s, ok := m.Get(id); ok && s != old {
			return s
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatalf("session %q never restarted", id)
	return nil
}

func superCfg(store CheckpointStore) Config {
	return Config{
		AutoRestart:        true,
		Checkpoints:        store,
		CheckpointInterval: time.Nanosecond, // checkpoint after every processed frame
	}
}

// TestSupervisorRestartFromCheckpoint is the happy self-healing path:
// a worker panic mid-call is healed by resurrecting the id from its
// last-good checkpoint as incarnation 2, with no reconstruction state
// lost (checkpoint-per-frame) and the old handle left as a readable
// Failed tombstone.
func TestSupervisorRestartFromCheckpoint(t *testing.T) {
	store := NewMemStore()
	m := NewManager(superCfg(store))
	defer m.Close()

	var fuse atomic.Int64
	fuse.Store(6) // detonate on the 6th segmented frame
	opts := testOpts()
	opts.IdentifyAfter = 2 // pin early so every frame is segmented as it arrives
	opts.Segmenter = bombSegmenter{fuse: &fuse}
	s1, err := m.Open("call", testW, testH, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Incarnation() != 1 {
		t.Fatalf("fresh session incarnation = %d", s1.Incarnation())
	}

	frames, sils := testFrames(12)
	for i := 0; i < 6; i++ { // frames 1..5 process and checkpoint; 6 detonates
		feedAndSettle(t, s1, frames[i], sils[i])
	}
	<-s1.done
	if s1.Health() != Failed || s1.Failure() == "" {
		t.Fatalf("incarnation 1: health=%v failure=%q", s1.Health(), s1.Failure())
	}

	s2 := waitIncarnation(t, m, "call", s1)
	if s2.Incarnation() != 2 {
		t.Fatalf("incarnation = %d, want 2", s2.Incarnation())
	}
	if s2.Health() != Healthy {
		t.Fatalf("new incarnation health = %v", s2.Health())
	}
	// The stale handle keeps its terminal record and rejects frames.
	if s1.Health() != Failed {
		t.Fatal("old incarnation health rewound")
	}
	if err := s1.Feed(frames[6], sils[6]); !errors.Is(err, ErrFailed) {
		t.Fatalf("stale handle Feed = %v, want ErrFailed", err)
	}

	// Resumed from the last-good checkpoint: 5 processed frames, each
	// checkpointed, so nothing was lost to the crash.
	st := s2.Stats()
	if st.ResumedFrames != 5 || st.StreamFrames < st.ResumedFrames {
		t.Fatalf("resume floor broken: resumed=%d stream=%d", st.ResumedFrames, st.StreamFrames)
	}
	if st.ResumedCoverage <= 0 {
		t.Fatal("resumed with zero coverage despite checkpointed residue")
	}

	// Manager.Feed routes to the live incarnation; the call carries on.
	for i := 6; i < 12; i++ {
		if err := m.Feed("call", frames[i], sils[i]); err != nil {
			t.Fatalf("feed after restart: %v", err)
		}
	}
	if err := s2.Finalize(); err != nil {
		t.Fatal(err)
	}
	st = s2.Stats()
	if st.StreamFrames != 11 { // 5 resumed + 6 fed after the restart
		t.Fatalf("stream frames = %d, want 11", st.StreamFrames)
	}
	if got := s2.Snapshot().Coverage.Fraction(); got < st.ResumedCoverage {
		t.Fatalf("coverage regressed across incarnations: %f < %f", got, st.ResumedCoverage)
	}

	events := m.RestartEvents()
	if len(events) != 1 {
		t.Fatalf("restart events = %d, want 1", len(events))
	}
	ev := events[0]
	if ev.ID != "call" || ev.Incarnation != 2 || !ev.FromCheckpoint || ev.ResumedFrames != 5 {
		t.Fatalf("restart event = %+v", ev)
	}
	ms := m.Stats()
	if ms.Restarts != 1 || ms.Panics != 1 || ms.BreakerTrips != 0 || ms.FailedNow != 0 || ms.Open != 1 {
		t.Fatalf("manager stats = %+v", ms)
	}
}

// TestSupervisorCircuitBreaker crash-loops one id until the breaker
// trips: the session must end PermanentlyFailed with bounded reasons,
// exactly MaxRestarts resurrections burned, and the supervisor must
// leave it alone afterwards.
func TestSupervisorCircuitBreaker(t *testing.T) {
	cfg := superCfg(NewMemStore())
	cfg.MaxRestarts = 3
	m := NewManager(cfg)
	defer m.Close()

	opts := testOpts()
	opts.IdentifyAfter = 1
	opts.Segmenter = panicSegmenter{} // every incarnation dies on its first frame
	if _, err := m.Open("doomed", testW, testH, opts); err != nil {
		t.Fatal(err)
	}
	frames, sils := testFrames(1)
	var final *Session
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		_ = m.Feed("doomed", frames[0], sils[0]) // keep detonating incarnations
		s, ok := m.Get("doomed")
		if !ok {
			t.Fatal("session vanished")
		}
		if s.Health() == PermanentlyFailed {
			final = s
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	if final == nil {
		t.Fatal("breaker never tripped")
	}

	if got := final.Incarnation(); got != 1+cfg.MaxRestarts {
		t.Fatalf("final incarnation = %d, want %d", got, 1+cfg.MaxRestarts)
	}
	reasons := final.HealthReasons()
	if len(reasons) == 0 || len(reasons) > maxHealthReasons {
		t.Fatalf("breaker reasons unbounded or empty: %d", len(reasons))
	}
	ms := m.Stats()
	if ms.Restarts != uint64(cfg.MaxRestarts) || ms.BreakerTrips != 1 {
		t.Fatalf("restarts=%d trips=%d, want %d/1", ms.Restarts, ms.BreakerTrips, cfg.MaxRestarts)
	}
	if ms.PermanentlyFailedNow != 1 || ms.FailedNow != 0 {
		t.Fatalf("health breakdown = %+v", ms)
	}
	if ms.HealthyNow+ms.DegradedNow+ms.FailedNow+ms.PermanentlyFailedNow != ms.Open {
		t.Fatalf("health sum broken: %+v", ms)
	}
	// No checkpoint was ever written (no frame survived), so every
	// resurrection started fresh.
	for _, ev := range m.RestartEvents() {
		if ev.FromCheckpoint || ev.ResumedFrames != 0 {
			t.Fatalf("phantom checkpoint in restart event %+v", ev)
		}
	}
	// The breaker is terminal: give the supervisor time to misbehave.
	time.Sleep(20 * time.Millisecond)
	if s, _ := m.Get("doomed"); s != final {
		t.Fatal("supervisor restarted a permanently-failed session")
	}
}

// TestManagerAdmissionControl covers the typed load-shedding contract:
// ErrFleetFull past MaxSessions, ErrMemoryBudget past MemBudget, and
// re-admission after capacity frees up.
func TestManagerAdmissionControl(t *testing.T) {
	m := NewManager(Config{MaxSessions: 2})
	defer m.Close()
	a, err := m.Open("a", testW, testH, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open("b", testW, testH, testOpts()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open("c", testW, testH, testOpts()); !errors.Is(err, ErrFleetFull) {
		t.Fatalf("third open = %v, want ErrFleetFull", err)
	}
	perSession := m.MemUsed() / 2
	if perSession == 0 {
		t.Fatal("zero per-session footprint")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open("c", testW, testH, testOpts()); err != nil {
		t.Fatalf("open after capacity freed: %v", err)
	}
	if got := m.Stats().Shed; got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}

	// Memory budget: room for one stream and change, never two.
	mb := NewManager(Config{MemBudget: int64(perSession + perSession/2)})
	defer mb.Close()
	if _, err := mb.Open("one", testW, testH, testOpts()); err != nil {
		t.Fatal(err)
	}
	if _, err := mb.Open("two", testW, testH, testOpts()); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("over-budget open = %v, want ErrMemoryBudget", err)
	}
	snap := mb.Stats()
	if snap.MemUsed != perSession || snap.MemBudget != int64(perSession+perSession/2) {
		t.Fatalf("memory accounting = used %d budget %d", snap.MemUsed, snap.MemBudget)
	}
}

// TestManagerClosedTyped pins the typed-shutdown contract: Open, Feed
// and Manager.Feed after Close return ErrManagerClosed (which still
// matches ErrClosed for old callers), and unknown ids get ErrNoSession.
func TestManagerClosedTyped(t *testing.T) {
	m := NewManager(Config{})
	s, err := m.Open("call", testW, testH, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	frames, sils := testFrames(1)
	if err := m.Feed("ghost", frames[0], sils[0]); !errors.Is(err, ErrNoSession) {
		t.Fatalf("unknown id = %v, want ErrNoSession", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open("late", testW, testH, testOpts()); !errors.Is(err, ErrManagerClosed) {
		t.Fatalf("open after close = %v, want ErrManagerClosed", err)
	}
	if err := s.Feed(frames[0], sils[0]); !errors.Is(err, ErrManagerClosed) {
		t.Fatalf("session feed after close = %v, want ErrManagerClosed", err)
	}
	if err := m.Feed("call", frames[0], sils[0]); !errors.Is(err, ErrManagerClosed) {
		t.Fatalf("manager feed after close = %v, want ErrManagerClosed", err)
	}
	// Backward compatibility: the new error still is ErrClosed.
	if !errors.Is(ErrManagerClosed, ErrClosed) {
		t.Fatal("ErrManagerClosed must wrap ErrClosed")
	}
	if _, err := m.Restore(func(string) core.Options { return testOpts() }); !errors.Is(err, ErrManagerClosed) {
		t.Fatalf("restore after close = %v, want ErrManagerClosed", err)
	}
}

// TestManagerRestoreAdmission: a fleet restarting over its limits sheds
// deterministically — highest sorted ids past MaxSessions are refused
// with RestoreError.Shed and their checkpoints left intact.
func TestManagerRestoreAdmission(t *testing.T) {
	store := NewMemStore()
	seed := NewManager(Config{Checkpoints: store, CheckpointInterval: time.Hour})
	frames, sils := testFrames(6)
	for _, id := range []string{"a", "b", "c"} {
		s, err := seed.Open(id, testW, testH, testOpts())
		if err != nil {
			t.Fatal(err)
		}
		for i := range frames {
			if err := s.Feed(frames[i], sils[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := seed.Close(); err != nil { // final checkpoint per session
		t.Fatal(err)
	}
	if ids, _ := store.List(); len(ids) != 3 {
		t.Fatalf("seed fleet checkpoints = %v", ids)
	}

	m := NewManager(Config{Checkpoints: store, MaxSessions: 2})
	defer m.Close()
	restored, err := m.Restore(func(string) core.Options { return testOpts() })
	if len(restored) != 2 {
		t.Fatalf("restored %d sessions, want 2", len(restored))
	}
	if !errors.Is(err, ErrFleetFull) {
		t.Fatalf("restore error = %v, want ErrFleetFull in chain", err)
	}
	var re *RestoreError
	if !errors.As(err, &re) || !re.Shed || re.ID != "c" {
		t.Fatalf("restore error = %#v, want shed of %q", re, "c")
	}
	for _, want := range []string{"a", "b"} {
		s, ok := m.Get(want)
		if !ok {
			t.Fatalf("session %q not restored", want)
		}
		if st := s.Stats(); !st.Restored || st.StreamFrames != uint64(len(frames)) {
			t.Fatalf("session %q resumed wrong: %+v", want, st)
		}
	}
	// The shed checkpoint is untouched — a later Restore with capacity
	// picks it up.
	if ids, _ := store.List(); len(ids) != 3 {
		t.Fatalf("shed checkpoint deleted: %v", ids)
	}
	if got := m.Stats().Shed; got != 1 {
		t.Fatalf("shed counter = %d", got)
	}
}

// TestChaosCrashRecoverySupervised is the acceptance scenario: a seeded
// fault profile poisons frames mid-call (worker panics) while the
// checkpoint store randomly fails saves, and the supervisor must heal
// every crash from the last-good checkpoint — zero unresurrected
// failures, frame counter never below the resumed floor, coverage
// monotone across incarnations, counters reconciled — and the whole
// run must be bit-deterministic for the fixed seed.
func TestChaosCrashRecoverySupervised(t *testing.T) {
	frames, sils := loadGoldenCall(t, 4)

	type outcome struct {
		restarts     int
		events       []RestartEvent
		streamFrames uint64
		coverage     int
		poisoned     int
	}
	run := func() outcome {
		inj := faultinject.New(faultinject.Profile{
			Seed:   42,
			Drop:   0.10,
			Poison: 0.12,
		})
		delivered := inj.Apply(frames, sils)
		poison := map[*imagex.Image]bool{}
		nPoison := 0
		for _, f := range delivered {
			if f.Poisoned {
				poison[f.Img] = true
				nPoison++
			}
		}
		if nPoison < 3 {
			t.Fatalf("seed 42 poisoned only %d frames; not a meaningful crash storm", nPoison)
		}

		flaky := faultinject.NewFlakyStore(NewMemStore(), faultinject.StoreProfile{
			Seed:     42,
			SaveFail: 0.3, // some checkpoint cycles fail; the last good one must carry the restart
		})
		cfg := superCfg(flaky)
		cfg.MaxRestarts = nPoison + 1 // stay below the breaker
		m := NewManager(cfg)
		defer m.Close()
		opts := chaosOpts()
		// Pin on the first (clean) warmup frame: identification buffering
		// clones frames into the pending window, which would defeat the
		// pointer-identity poison set; post-pin every delivered frame is
		// segmented as-is, so every poisoned delivery detonates.
		opts.IdentifyAfter = 1
		opts.Segmenter = poisonSegmenter{set: poison}
		if _, err := m.Open("call", chaosW, chaosH, opts); err != nil {
			t.Fatal(err)
		}

		// Warm up with clean frames so the first crash always has a
		// checkpoint to resume from.
		cur, _ := m.Get("call")
		for i := 0; i < 3; i++ {
			feedAndSettle(t, cur, frames[i], sils[i])
		}
		// Serial chaos feed: wait out every crash before the next frame.
		for _, f := range delivered {
			deadline := time.Now().Add(10 * time.Second)
			for {
				s, ok := m.Get("call")
				if !ok {
					t.Fatal("session vanished mid-call")
				}
				if s.Health() < Failed {
					cur = s
					break
				}
				if s.Health() == PermanentlyFailed {
					t.Fatalf("breaker tripped below the cap: %v", s.HealthReasons())
				}
				if time.Now().After(deadline) {
					t.Fatal("supervisor never resurrected the call")
				}
				time.Sleep(100 * time.Microsecond)
			}
			feedAndSettle(t, cur, f.Img, f.Oracle)
		}
		final := waitHealed(t, m, "call")
		if err := final.Finalize(); err != nil {
			t.Fatalf("healed call finalize: %v", err)
		}

		st := final.Stats()
		ms := m.Stats()
		// Zero unresurrected failures; every panic became a restart.
		if ms.FailedNow != 0 || ms.PermanentlyFailedNow != 0 || ms.BreakerTrips != 0 {
			t.Fatalf("unhealed fleet: %+v", ms)
		}
		if ms.Panics != uint64(nPoison) || ms.Restarts != uint64(nPoison) {
			t.Fatalf("panics=%d restarts=%d, want %d of each", ms.Panics, ms.Restarts, nPoison)
		}
		events := m.RestartEvents()
		if len(events) != nPoison {
			t.Fatalf("restart log = %d events, want %d", len(events), nPoison)
		}
		// Every restart resumed from the last-good checkpoint (the warmup
		// guarantees one exists), incarnations are sequential, and the
		// resumed floor is monotone non-decreasing across incarnations.
		for i, ev := range events {
			if !ev.FromCheckpoint || ev.ResumedFrames == 0 {
				t.Fatalf("restart %d not from a checkpoint: %+v", i, ev)
			}
			if ev.Incarnation != i+2 {
				t.Fatalf("restart %d incarnation = %d", i, ev.Incarnation)
			}
			if i > 0 && (ev.ResumedFrames < events[i-1].ResumedFrames ||
				ev.ResumedCoverage < events[i-1].ResumedCoverage) {
				t.Fatalf("resume floor regressed: %+v -> %+v", events[i-1], ev)
			}
		}
		if st.StreamFrames < st.ResumedFrames {
			t.Fatalf("frame counter %d below checkpoint floor %d", st.StreamFrames, st.ResumedFrames)
		}
		cov := final.Snapshot().Coverage.Fraction()
		if cov < st.ResumedCoverage || cov <= 0 {
			t.Fatalf("final coverage %f below resumed floor %f", cov, st.ResumedCoverage)
		}
		return outcome{
			restarts:     len(events),
			events:       events,
			streamFrames: st.StreamFrames,
			coverage:     final.Snapshot().Coverage.Count(),
			poisoned:     nPoison,
		}
	}

	a := run()
	b := run()
	if a.restarts != b.restarts || a.poisoned != b.poisoned ||
		a.streamFrames != b.streamFrames || a.coverage != b.coverage {
		t.Fatalf("same seed, different recovery:\n%+v\n%+v", a, b)
	}
	for i := range a.events {
		ea, eb := a.events[i], b.events[i]
		if ea.ResumedFrames != eb.ResumedFrames || ea.Incarnation != eb.Incarnation ||
			ea.FromCheckpoint != eb.FromCheckpoint {
			t.Fatalf("same seed, different restart %d:\n%+v\n%+v", i, ea, eb)
		}
	}
	t.Logf("healed %d crashes; %d frames, coverage count %d", a.restarts, a.streamFrames, a.coverage)
}

// waitHealed waits until the current incarnation of id is live (not
// Failed) and returns it.
func waitHealed(t *testing.T, m *Manager, id string) *Session {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s, ok := m.Get(id); ok && s.Health() < Failed {
			return s
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatalf("session %q never healed", id)
	return nil
}

// TestChaosSupervisedFleetRace is the concurrent supervised stress (run
// with -race): several sessions fed concurrently, some crash-looping
// under poisoned frames, the supervisor healing them while observers
// poll stats. Loose assertions — determinism lives in the serial test
// above — but the fleet must end with every id live and all counters
// self-consistent.
func TestChaosSupervisedFleetRace(t *testing.T) {
	frames, sils := loadGoldenCall(t, 1)
	cfg := superCfg(NewMemStore())
	cfg.MaxRestarts = 1000
	cfg.QueueDepth = 2 * len(frames)
	m := NewManager(cfg)

	const nSessions = 6
	type callState struct {
		poison map[*imagex.Image]bool
		frames []faultinject.Frame
	}
	calls := make([]callState, nSessions)
	for i := range calls {
		inj := faultinject.New(faultinject.Profile{Seed: int64(7000 + i), Drop: 0.1, Poison: 0.04})
		delivered := inj.Apply(frames, sils)
		poison := map[*imagex.Image]bool{}
		for _, f := range delivered {
			if f.Poisoned {
				poison[f.Img] = true
			}
		}
		calls[i] = callState{poison: poison, frames: delivered}
		opts := chaosOpts()
		opts.IdentifyAfter = 1
		opts.Segmenter = poisonSegmenter{set: poison}
		if _, err := m.Open(fmt.Sprintf("call-%d", i), chaosW, chaosH, opts); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	go func() { // stats observer
		for {
			select {
			case <-stop:
				return
			default:
			}
			ms := m.Stats()
			if ms.HealthyNow+ms.DegradedNow+ms.FailedNow+ms.PermanentlyFailedNow != ms.Open {
				t.Error("health breakdown does not sum to open")
				return
			}
			_ = m.RestartEvents()
		}
	}()

	done := make(chan int, nSessions)
	for i := range calls {
		go func(i int) {
			id := fmt.Sprintf("call-%d", i)
			for _, f := range calls[i].frames {
				// Route through the manager so restarts are transparent;
				// drop frames that land during a crash window.
				_ = m.Feed(id, f.Img, f.Oracle)
				time.Sleep(50 * time.Microsecond)
			}
			done <- i
		}(i)
	}
	for range calls {
		<-done
	}
	// Let the supervisor heal any crash from the last frames. A session
	// can look healthy while poisoned frames still sit in its queue, so
	// one moment with FailedNow == 0 proves nothing. Instead, repeat a
	// pass over every id until a whole pass finds each one settled: its
	// healed incarnation drains its queue and is still the current,
	// healthy incarnation afterwards.
	deadline := time.Now().Add(10 * time.Second)
	for settled := false; !settled && time.Now().Before(deadline); {
		settled = true
		for i := range calls {
			id := fmt.Sprintf("call-%d", i)
			s := waitHealed(t, m, id)
			if err := s.Drain(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			if cur, ok := m.Get(id); !ok || cur != s || cur.Health() >= Failed {
				settled = false
			}
		}
	}
	close(stop)

	ms := m.Stats()
	if ms.FailedNow != 0 || ms.PermanentlyFailedNow != 0 {
		t.Fatalf("fleet not healed: %+v", ms)
	}
	if ms.Open != nSessions {
		t.Fatalf("open = %d, want %d", ms.Open, nSessions)
	}
	if ms.Panics != ms.Restarts {
		t.Fatalf("panics=%d restarts=%d must reconcile on a healed fleet", ms.Panics, ms.Restarts)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("close of healed fleet: %v", err)
	}
}

package session

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/bgbuster/bgbuster/internal/compositor"
	"github.com/bgbuster/bgbuster/internal/core"
	"github.com/bgbuster/bgbuster/internal/faultinject"
	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/segment"
	"github.com/bgbuster/bgbuster/internal/vidstream"
)

// The chaos suite drives the session layer with seeded fault injection
// (internal/faultinject) over the committed golden fixtures and checks
// the resilience invariants of DESIGN.md §12: zero panics, every
// injected fault accounted for in the per-stage counters, coverage
// within the documented bound of a clean run, and durability trouble
// degrading — never stopping — the reconstruction.

const chaosW, chaosH = 32, 24 // geometry of the golden fixtures

// chaosSil replicates core's goldenSil: the oracle silhouette of golden
// frame i is a 10-wide block sweeping the lower half.
func chaosSil(i int) *imagex.Mask {
	m := imagex.NewMask(chaosW, chaosH)
	x0 := 12 + i%6
	for y := chaosH / 2; y < chaosH; y++ {
		for x := x0; x < x0+10 && x < chaosW; x++ {
			m.Set(x, y, true)
		}
	}
	return m
}

// chaosOpts mirrors core's goldenOpts for the known-image fixture.
func chaosOpts() core.Options {
	o := core.DefaultOptions()
	o.Segmenter = segment.OracleSegmenter{}
	o.Mode = core.VBKnownImage
	o.ColorRefine = false
	o.KnownImages = map[string]*imagex.Image{
		"beach":  compositor.BuiltinImage("beach", chaosW, chaosH),
		"aurora": compositor.BuiltinImage("aurora", chaosW, chaosH),
	}
	return o
}

// loadGoldenCall loads the committed golden-known fixture and repeats
// it `passes` times (with matching oracles) so the injected fault rates
// act on a statistically meaningful frame count.
func loadGoldenCall(t *testing.T, passes int) ([]*imagex.Image, []*imagex.Mask) {
	t.Helper()
	v, err := vidstream.Load(filepath.Join("..", "core", "testdata", "golden-known.bbv"))
	if err != nil {
		t.Fatalf("golden fixture: %v", err)
	}
	if w, h := v.Size(); w != chaosW || h != chaosH {
		t.Fatalf("golden fixture geometry %dx%d", w, h)
	}
	var frames []*imagex.Image
	var sils []*imagex.Mask
	for p := 0; p < passes; p++ {
		for i := range v.Frames {
			frames = append(frames, v.Frames[i])
			sils = append(sils, chaosSil(i))
		}
	}
	return frames, sils
}

// runChaosSession feeds every delivered frame through one session and
// finalizes it. Injected stall Delays are deliberately not slept — the
// injector is wall-clock free and so is the test.
func runChaosSession(t *testing.T, m *Manager, id string, delivered []faultinject.Frame) *Session {
	t.Helper()
	s, err := m.Open(id, chaosW, chaosH, chaosOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range delivered {
		if err := s.Feed(f.Img, f.Oracle); err != nil {
			t.Fatalf("feed: %v", err)
		}
	}
	if err := s.Finalize(); err != nil {
		t.Fatalf("finalize: %v", err)
	}
	return s
}

// TestChaosInvariantGoldenStream is the headline acceptance scenario:
// the golden call under seeded 20% frame drop + 5% frame corruption
// must complete with zero panics, reconcile every injected fault
// against the session counters, and claim at least half the coverage of
// a clean run (the documented bound; see DESIGN.md §12).
func TestChaosInvariantGoldenStream(t *testing.T) {
	frames, sils := loadGoldenCall(t, 3)

	// Clean reference run.
	mClean := NewManager(Config{MaxImpulseNoise: 0.02, QueueDepth: len(frames) + 1})
	defer mClean.Close()
	var clean []faultinject.Frame
	for i := range frames {
		clean = append(clean, faultinject.Frame{Img: frames[i], Oracle: sils[i]})
	}
	sClean := runChaosSession(t, mClean, "clean", clean)
	cleanStats := sClean.Stats()
	cleanCov := sClean.Snapshot().Coverage.Count()
	if cleanCov == 0 || cleanStats.FramesRejected != 0 {
		t.Fatalf("clean run: coverage=%d rejected=%d", cleanCov, cleanStats.FramesRejected)
	}

	// Chaos run. CorruptFrac 0.08 is comfortably above the 0.02 gate, so
	// every corrupted frame must be screened out; Dup is zero so gated
	// deliveries map 1:1 to corrupted input frames.
	inj := faultinject.New(faultinject.Profile{
		Seed:        42,
		Drop:        0.20,
		Corrupt:     0.05,
		CorruptFrac: 0.08,
	})
	delivered := inj.Apply(frames, sils)
	m := NewManager(Config{MaxImpulseNoise: 0.02, QueueDepth: len(delivered) + 1})
	defer m.Close()
	s := runChaosSession(t, m, "chaos", delivered)

	ctr := inj.Counters()
	if ctr.Dropped == 0 || ctr.Corrupted == 0 {
		t.Fatalf("seed 42 injected no faults to observe: %v", ctr)
	}
	st := s.Stats()

	// Zero panics, and the session must not have failed.
	if p := m.Stats().Panics; p != 0 {
		t.Fatalf("%d worker panics under chaos", p)
	}
	if st.Health == Failed {
		t.Fatalf("session failed under recoverable chaos: %v", st.HealthReasons)
	}

	// Fault accounting: everything the injector emitted was fed; nothing
	// was lost in the queue; fed = rejected + processed; every rejection
	// is a gate rejection of a corrupted delivery.
	if st.FramesFed != uint64(ctr.Emitted) {
		t.Fatalf("fed %d frames, injector emitted %d", st.FramesFed, ctr.Emitted)
	}
	if st.FramesDropped != 0 {
		t.Fatalf("session dropped %d frames with an ample queue", st.FramesDropped)
	}
	if st.FramesFed != st.FramesRejected+st.FramesProcessed {
		t.Fatalf("accounting identity broken: fed=%d rejected=%d processed=%d",
			st.FramesFed, st.FramesRejected, st.FramesProcessed)
	}
	if st.FramesGated != st.FramesRejected {
		t.Fatalf("non-gate rejections under pixel-corruption-only chaos: gated=%d rejected=%d",
			st.FramesGated, st.FramesRejected)
	}
	if st.FramesGated != uint64(ctr.Corrupted) {
		t.Fatalf("gate caught %d frames, injector corrupted %d (%v)", st.FramesGated, ctr.Corrupted, ctr)
	}

	// The reconstruction still identifies the VB and lands within the
	// documented coverage bound: ≥ 50% of the clean run.
	if !st.Identified || st.VBName != "beach" {
		t.Fatalf("chaos run lost identification: %+v", st)
	}
	cov := s.Snapshot().Coverage.Count()
	if cov*2 < cleanCov {
		t.Fatalf("chaos coverage %d below bound (half of clean %d)", cov, cleanCov)
	}
	t.Logf("chaos: %v; coverage %d/%d clean", ctr, cov, cleanCov)
}

// TestChaosDeterministicReplay pins the reproducibility contract: two
// runs with the same profile seed produce identical fault sequences and
// identical session counters.
func TestChaosDeterministicReplay(t *testing.T) {
	frames, sils := loadGoldenCall(t, 2)
	p := faultinject.Profile{Seed: 7, Drop: 0.15, Corrupt: 0.1, CorruptFrac: 0.08, Dup: 0.05}

	run := func(id string) (faultinject.Counters, Snapshot) {
		inj := faultinject.New(p)
		delivered := inj.Apply(frames, sils)
		m := NewManager(Config{MaxImpulseNoise: 0.02, QueueDepth: len(delivered) + 1})
		defer m.Close()
		s := runChaosSession(t, m, id, delivered)
		return inj.Counters(), s.Stats()
	}
	ctrA, stA := run("a")
	ctrB, stB := run("b")
	if ctrA != ctrB {
		t.Fatalf("same seed, different faults:\n%v\n%v", ctrA, ctrB)
	}
	if stA.FramesFed != stB.FramesFed || stA.FramesGated != stB.FramesGated ||
		stA.FramesProcessed != stB.FramesProcessed || stA.FramesRejected != stB.FramesRejected {
		t.Fatalf("same seed, different session counters:\n%+v\n%+v", stA, stB)
	}
}

// TestChaosFailingStoreDegradesNotStops is the durability half of the
// acceptance criteria: a checkpoint store that always fails must leave
// the session Degraded with its retries exhausted and counted — while
// frame processing continues untouched.
func TestChaosFailingStoreDegradesNotStops(t *testing.T) {
	inner := NewMemStore()
	flaky := faultinject.NewFlakyStore(inner, faultinject.StoreProfile{Seed: 1, SaveFail: 1})
	m := NewManager(Config{
		Checkpoints:        flaky,
		CheckpointInterval: time.Nanosecond,
	})
	defer m.Close()
	s, err := m.Open("doomed-store", testW, testH, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	frames, sils := testFrames(8)
	for i := range frames {
		if err := s.Feed(frames[i], sils[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Finalize(); err != nil {
		t.Fatalf("a broken store must not fail the session: %v", err)
	}

	st := s.Stats()
	if st.FramesProcessed != uint64(len(frames)) {
		t.Fatalf("processed %d/%d frames; checkpoint failures stopped the stream", st.FramesProcessed, len(frames))
	}
	if st.Health != Degraded {
		t.Fatalf("health = %v, want degraded (reasons %v)", st.Health, st.HealthReasons)
	}
	if len(st.HealthReasons) == 0 {
		t.Fatal("degraded with no recorded reason")
	}
	if st.Checkpoints != 0 {
		t.Fatalf("%d checkpoints succeeded on an always-failing store", st.Checkpoints)
	}
	if st.CheckpointErrors == 0 || st.CheckpointSaveRetries == 0 || st.CheckpointFailStreak == 0 {
		t.Fatalf("retry telemetry not recorded: %+v", st)
	}
	// Every failed attempt the session saw is an injected fault the store
	// counted, and each cycle burns all 3 attempts.
	sc := flaky.StoreCounters()
	if sc.InjectedSaveErrs != st.CheckpointErrors {
		t.Fatalf("store injected %d save errors, session counted %d", sc.InjectedSaveErrs, st.CheckpointErrors)
	}
	if st.CheckpointErrors%3 != 0 {
		t.Fatalf("attempts %d not a whole number of 3-attempt cycles", st.CheckpointErrors)
	}
	if ids, _ := inner.List(); len(ids) != 0 {
		t.Fatalf("inner store holds %v despite every save failing", ids)
	}
	if snap := m.Stats(); snap.Degraded != 1 || snap.DegradedNow != 1 {
		t.Fatalf("manager health totals: %+v", snap)
	}
}

// TestChaosConcurrentSessionsRace is the fleet stress (run it with
// -race): ten concurrent sessions, each with its own seeded injector,
// all checkpointing through one flaky store. Every session must end in
// a terminal state with its intake drained, and the fleet totals must
// reconcile with the injected-fault counters.
func TestChaosConcurrentSessionsRace(t *testing.T) {
	frames, sils := loadGoldenCall(t, 2)
	inner := NewMemStore()
	flaky := faultinject.NewFlakyStore(inner, faultinject.StoreProfile{
		Seed:         99,
		SaveFail:     0.4,
		PartialWrite: 0.2,
	})
	m := NewManager(Config{
		Checkpoints:        flaky,
		CheckpointInterval: time.Millisecond,
		MaxImpulseNoise:    0.02,
		StallTimeout:       time.Minute, // armed, but nothing here stalls that long
		CloseTimeout:       30 * time.Second,
		QueueDepth:         2 * len(frames),
	})

	const nSessions = 10
	injectors := make([]*faultinject.Injector, nSessions)
	delivered := make([][]faultinject.Frame, nSessions)
	sessions := make([]*Session, nSessions)
	for i := range sessions {
		s, err := m.Open(fmt.Sprintf("chaos-%d", i), chaosW, chaosH, chaosOpts())
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
		injectors[i] = faultinject.New(faultinject.Profile{
			Seed:        int64(1000 + i), // decorrelated fault sequences
			Drop:        0.15,
			Dup:         0.05,
			Reorder:     0.1,
			Corrupt:     0.1,
			CorruptFrac: 0.08,
			Geom:        0.05,
		})
		delivered[i] = injectors[i].Apply(frames, sils)
	}

	var wg sync.WaitGroup
	for i := range sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, f := range delivered[i] {
				if err := sessions[i].Feed(f.Img, f.Oracle); err != nil {
					t.Errorf("session %d feed: %v", i, err)
					return
				}
			}
			if err := sessions[i].Finalize(); err != nil {
				t.Errorf("session %d finalize: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	if p := m.Stats().Panics; p != 0 {
		t.Fatalf("%d worker panics under concurrent chaos", p)
	}
	snap := m.Stats()
	if snap.HealthyNow+snap.DegradedNow+snap.FailedNow != snap.Open {
		t.Fatalf("health breakdown does not sum to open sessions: %+v", snap)
	}
	if snap.FailedNow != 0 {
		t.Fatalf("%d sessions failed under recoverable chaos", snap.FailedNow)
	}
	if snap.Abandoned != 0 || snap.Stalls != 0 {
		t.Fatalf("unexpected abandonments/stalls: %+v", snap)
	}

	var totalCorrupted, totalMisgeom uint64
	for i, s := range sessions {
		select {
		case <-s.done:
		default:
			t.Fatalf("session %d not terminal after Finalize", i)
		}
		// Expected per-stage outcomes, delivery by delivery: misgeometry
		// deliveries are rejected by the reconstructor's frame-fault
		// taxonomy; corrupted well-formed deliveries (duplicates included)
		// trip the quality gate; everything else is processed.
		var wantGated, wantTaxonomy uint64
		for _, f := range delivered[i] {
			switch {
			case f.Misgeometry:
				wantTaxonomy++
			case f.Corrupted:
				wantGated++
			}
		}
		ctr := injectors[i].Counters()
		totalCorrupted += uint64(ctr.Corrupted)
		totalMisgeom += uint64(ctr.Misgeometry)
		st := s.Stats()
		if st.FramesFed != uint64(ctr.Emitted) {
			t.Fatalf("session %d fed %d, injector emitted %d", i, st.FramesFed, ctr.Emitted)
		}
		if st.FramesDropped != 0 {
			t.Fatalf("session %d dropped %d frames with an ample queue", i, st.FramesDropped)
		}
		if st.FramesFed != st.FramesRejected+st.FramesProcessed {
			t.Fatalf("session %d accounting identity broken: %+v", i, st)
		}
		if st.FramesGated != wantGated {
			t.Fatalf("session %d gated %d deliveries, want %d", i, st.FramesGated, wantGated)
		}
		if st.FramesRejected != wantGated+wantTaxonomy {
			t.Fatalf("session %d rejected %d deliveries, want %d gated + %d taxonomy",
				i, st.FramesRejected, wantGated, wantTaxonomy)
		}
		if st.FramesProcessed == 0 {
			t.Fatalf("session %d processed nothing", i)
		}
	}
	if totalCorrupted == 0 || totalMisgeom == 0 {
		t.Fatal("stress profiles injected no corruption/misgeometry to observe")
	}

	// The flaky store saw real traffic and its injected failures surfaced
	// in session telemetry, not silence.
	sc := flaky.StoreCounters()
	if sc.Saves == 0 {
		t.Fatal("no checkpoint traffic reached the flaky store")
	}
	var totalCkptErrs uint64
	for _, s := range sessions {
		totalCkptErrs += s.Stats().CheckpointErrors
	}
	if totalCkptErrs != sc.InjectedSaveErrs {
		t.Fatalf("sessions counted %d checkpoint errors, store injected %d", totalCkptErrs, sc.InjectedSaveErrs)
	}

	if err := m.Close(); err != nil {
		t.Fatalf("close after finalized fleet: %v", err)
	}
}

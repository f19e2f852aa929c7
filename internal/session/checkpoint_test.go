package session

import (
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/bgbuster/bgbuster/internal/core"
)

func TestDirStore(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStore(filepath.Join(dir, "nested", "ckpts"))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("roundtrip", func(t *testing.T) {
		if err := st.Save("call/../1", []byte("v1")); err != nil {
			t.Fatal(err)
		}
		got, err := st.Load("call/../1")
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "v1" {
			t.Fatalf("loaded %q", got)
		}
		// The hostile id must not have escaped the store directory.
		entries, err := os.ReadDir(st.Dir())
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || !strings.HasSuffix(entries[0].Name(), checkpointExt) {
			t.Fatalf("store dir entries: %v", entries)
		}
		if _, err := os.Stat(filepath.Join(dir, "nested", "1"+checkpointExt)); !os.IsNotExist(err) {
			t.Fatal("path traversal escaped the store directory")
		}
	})

	t.Run("overwrite", func(t *testing.T) {
		if err := st.Save("call/../1", []byte("v2")); err != nil {
			t.Fatal(err)
		}
		got, err := st.Load("call/../1")
		if err != nil || string(got) != "v2" {
			t.Fatalf("after overwrite: %q, %v", got, err)
		}
	})

	t.Run("list-sorted-and-filtered", func(t *testing.T) {
		for _, id := range []string{"zeta", "alpha"} {
			if err := st.Save(id, []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		// Junk the sweeper must skip: a stray file, a fake-hex name and
		// an interrupted temp file.
		for _, junk := range []string{"README.txt", "nothex!" + checkpointExt, "tmp-123" + checkpointExt + ".partial"} {
			if err := os.WriteFile(filepath.Join(st.Dir(), junk), []byte("junk"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		ids, err := st.List()
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"alpha", "call/../1", "zeta"}
		if len(ids) != len(want) {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
		for i := range want {
			if ids[i] != want[i] {
				t.Fatalf("ids = %v, want %v", ids, want)
			}
		}
	})

	t.Run("delete", func(t *testing.T) {
		if err := st.Delete("alpha"); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Load("alpha"); err == nil {
			t.Fatal("loaded a deleted checkpoint")
		}
		if err := st.Delete("alpha"); err != nil {
			t.Fatalf("deleting a missing id must be a no-op: %v", err)
		}
	})
}

// TestDirStoreOrphanSweep covers the Save crash window: a process that
// died between CreateTemp and rename leaves a tmp-*.partial file behind.
// Opening the store must clean those up — and only those.
func TestDirStoreOrphanSweep(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save("live", []byte("good bytes")); err != nil {
		t.Fatal(err)
	}
	// Simulate two interrupted saves plus a foreign file that merely
	// resembles one.
	orphans := []string{
		"tmp-111" + checkpointExt + ".partial",
		"tmp-222" + checkpointExt + ".partial",
	}
	for _, name := range orphans {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	keep := "notes-tmp.partial.txt"
	if err := os.WriteFile(filepath.Join(dir, keep), []byte("mine"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Orphans(); len(got) != len(orphans) {
		t.Fatalf("Orphans() = %v, want the %d interrupted temp files", got, len(orphans))
	}
	for _, name := range orphans {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived the sweep", name)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, keep)); err != nil {
		t.Fatalf("foreign file %s was swept: %v", keep, err)
	}
	if data, err := st2.Load("live"); err != nil || string(data) != "good bytes" {
		t.Fatalf("real checkpoint damaged by the sweep: %q, %v", data, err)
	}
	// A store that opened clean reports no orphans.
	if got := st.Orphans(); len(got) != 0 {
		t.Fatalf("clean open reports orphans: %v", got)
	}
}

func TestDirStoreListDetailed(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"b", "a"} {
		if err := st.Save(id, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// A foreign file, a .bbck whose name is not hex, and a subdirectory:
	// all must be reported as skipped, none must error the listing.
	if err := os.WriteFile(filepath.Join(dir, "README.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "zz!!"+checkpointExt), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "subdir"), 0o755); err != nil {
		t.Fatal(err)
	}
	ids, skipped, err := st.ListDetailed()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Fatalf("ids = %v", ids)
	}
	wantSkipped := []string{"README.txt", "subdir", "zz!!" + checkpointExt}
	if len(skipped) != len(wantSkipped) {
		t.Fatalf("skipped = %v, want %v", skipped, wantSkipped)
	}
	for i := range wantSkipped {
		if skipped[i] != wantSkipped[i] {
			t.Fatalf("skipped = %v, want %v", skipped, wantSkipped)
		}
	}
	// The plain List keeps its lenient contract.
	plain, err := st.List()
	if err != nil || len(plain) != 2 {
		t.Fatalf("List = %v, %v", plain, err)
	}
	// Skipped files are reported, never deleted.
	for _, name := range []string{"README.txt", "zz!!" + checkpointExt} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("listing deleted %s: %v", name, err)
		}
	}
}

func TestDirStoreUnusableDir(t *testing.T) {
	dir := t.TempDir()
	blocker := filepath.Join(dir, "file")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The target path is a file, and a path under a file: both must fail
	// up front with an error naming the problem, not succeed and break
	// at the first Save hours later.
	for _, target := range []string{blocker, filepath.Join(blocker, "sub")} {
		if _, err := NewDirStore(target); err == nil {
			t.Fatalf("NewDirStore(%q) succeeded on an unusable path", target)
		}
	}
}

func TestMemStore(t *testing.T) {
	st := NewMemStore()
	if err := st.Save("a", []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load("a")
	if err != nil {
		t.Fatal(err)
	}
	got[0] = 99 // the store must have handed out a copy
	again, err := st.Load("a")
	if err != nil || again[0] != 1 {
		t.Fatalf("store aliased its buffer: %v, %v", again, err)
	}
	if _, err := st.Load("missing"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing id error = %v", err)
	}
	ids, err := st.List()
	if err != nil || len(ids) != 1 || ids[0] != "a" {
		t.Fatalf("List = %v, %v", ids, err)
	}
	if err := st.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if ids, _ := st.List(); len(ids) != 0 {
		t.Fatalf("ids after delete: %v", ids)
	}
}

// TestManagerRestoreRoundTrip is the crash-restart scenario: feed a
// fleet, checkpoint mid-call, abandon the first manager without a
// graceful Close (a Close would Finalize every call — a semantic
// end-of-call, after which a resumed session is read-only; eviction
// coverage is in TestEvictThenRestoreRace). A second manager on the
// same store must resume every call and keep feeding it.
// TestResumeFloorEveryPath: a session resumed from a checkpoint reports
// that checkpoint's frame counter and coverage as its resume floor,
// whether Restore or ResumeSession registered it (the supervisor's
// floor is asserted in TestSupervisorRestartFromCheckpoint).
func TestResumeFloorEveryPath(t *testing.T) {
	store := NewMemStore()
	m1 := NewManager(Config{Checkpoints: store})
	defer m1.Close()
	s, err := m1.Open("call", testW, testH, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	frames, sils := testFrames(12)
	for j := range frames {
		if err := s.Feed(frames[j], sils[j]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckpt, err := store.Load("call")
	if err != nil {
		t.Fatal(err)
	}
	wantCov := s.Snapshot().Coverage.Fraction()
	if wantCov <= 0 {
		t.Fatal("no coverage to resume from")
	}
	check := func(path string, st Snapshot) {
		t.Helper()
		if st.ResumedFrames != 12 || st.ResumedCoverage != wantCov {
			t.Errorf("%s: resume floor %d frames, %v coverage; want 12, %v",
				path, st.ResumedFrames, st.ResumedCoverage, wantCov)
		}
	}

	m2 := NewManager(Config{Checkpoints: store})
	defer m2.Close()
	restored, err := m2.Restore(func(string) core.Options { return testOpts() })
	if err != nil || len(restored) != 1 {
		t.Fatalf("Restore: %d sessions, %v", len(restored), err)
	}
	check("Restore", restored[0].Stats())

	m3 := NewManager(Config{})
	defer m3.Close()
	resumed, err := m3.ResumeSession("call", ckpt, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	check("ResumeSession", resumed.Stats())
}

func TestManagerRestoreRoundTrip(t *testing.T) {
	store := NewMemStore()
	const nSessions = 3

	m1 := NewManager(Config{Checkpoints: store})
	defer m1.Close()
	frames, sils := testFrames(12)
	for i := 0; i < nSessions; i++ {
		s, err := m1.Open(fmt.Sprintf("call-%d", i), testW, testH, testOpts())
		if err != nil {
			t.Fatal(err)
		}
		for j := range frames {
			if err := s.Feed(frames[j], sils[j]); err != nil {
				t.Fatal(err)
			}
		}
		// Feed is asynchronous: wait for the worker to drain before the
		// explicit mid-call checkpoint, so the captured state is exact.
		deadline := time.Now().Add(5 * time.Second)
		for s.Stats().FramesProcessed < 12 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}

	ids, err := store.List()
	if err != nil || len(ids) != nSessions {
		t.Fatalf("store holds %v, want %d checkpoints", ids, nSessions)
	}

	m2 := NewManager(Config{Checkpoints: store})
	defer m2.Close()
	restored, err := m2.Restore(func(id string) core.Options { return testOpts() })
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != nSessions {
		t.Fatalf("restored %d sessions, want %d", len(restored), nSessions)
	}
	if got := m2.Stats().Restored; got != nSessions {
		t.Fatalf("manager Restored counter = %d", got)
	}

	for _, s := range restored {
		st := s.Stats()
		if !st.Restored {
			t.Fatalf("%s not flagged restored", s.ID())
		}
		if st.StreamFrames != 12 {
			t.Fatalf("%s stream frames = %d, want the pre-restart 12", s.ID(), st.StreamFrames)
		}
		if st.FramesProcessed != 0 {
			t.Fatalf("%s processed = %d frames in the new incarnation", s.ID(), st.FramesProcessed)
		}
		if !st.Identified || st.VBName != "flat" {
			t.Fatalf("%s lost its identification: %+v", s.ID(), st)
		}
		if s.Snapshot().Coverage.Count() == 0 {
			t.Fatalf("%s lost its residue", s.ID())
		}
		// The resumed call keeps going.
		more, moreSils := testFrames(5)
		for j := range more {
			if err := s.Feed(more[j], moreSils[j]); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Finalize(); err != nil {
			t.Fatal(err)
		}
		if got := s.Stats().StreamFrames; got != 17 {
			t.Fatalf("%s cumulative frames = %d, want 17", s.ID(), got)
		}
	}

	// A second Restore sees every id already open and reports it.
	if _, err := m2.Restore(func(id string) core.Options { return testOpts() }); !errors.Is(err, ErrExists) {
		t.Fatalf("second Restore = %v, want ErrExists", err)
	}
}

func TestManagerRestoreErrors(t *testing.T) {
	t.Run("no-store", func(t *testing.T) {
		m := NewManager(Config{})
		defer m.Close()
		if _, err := m.Restore(func(string) core.Options { return testOpts() }); err == nil {
			t.Fatal("Restore without a store must error")
		}
	})
	t.Run("partial-failure", func(t *testing.T) {
		store := NewMemStore()
		m1 := NewManager(Config{Checkpoints: store})
		s, err := m1.Open("good", testW, testH, testOpts())
		if err != nil {
			t.Fatal(err)
		}
		frames, sils := testFrames(6)
		for i := range frames {
			if err := s.Feed(frames[i], sils[i]); err != nil {
				t.Fatal(err)
			}
		}
		m1.Close()
		if err := store.Save("corrupt", []byte("not a checkpoint")); err != nil {
			t.Fatal(err)
		}

		m2 := NewManager(Config{Checkpoints: store})
		defer m2.Close()
		restored, err := m2.Restore(func(string) core.Options { return testOpts() })
		if err == nil {
			t.Fatal("corrupt checkpoint must surface an error")
		}
		if len(restored) != 1 || restored[0].ID() != "good" {
			t.Fatalf("restored = %v, want just the good session", restored)
		}
	})
}

// TestManagerRestoreQuarantinesCorruptFile crafts on-disk corruption in
// a real DirStore: after the fleet checkpoints, one .bbck is truncated
// and overwritten with garbage. Restore must resume the intact
// sessions, name the corrupt id in a *RestoreError, and leave the bad
// file on disk for inspection.
func TestManagerRestoreQuarantinesCorruptFile(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Checkpoint mid-call and abandon m1 without a graceful Close (which
	// would finalize every call and make the resumed sessions read-only).
	m1 := NewManager(Config{Checkpoints: store})
	defer m1.Close()
	frames, sils := testFrames(6)
	for _, id := range []string{"intact", "victim"} {
		s, err := m1.Open(id, testW, testH, testOpts())
		if err != nil {
			t.Fatal(err)
		}
		for i := range frames {
			if err := s.Feed(frames[i], sils[i]); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for s.Stats().FramesProcessed < uint64(len(frames)) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}

	// Corrupt the victim's checkpoint in place: keep a valid-looking
	// prefix, trash the rest.
	victimPath := filepath.Join(dir, hex.EncodeToString([]byte("victim"))+checkpointExt)
	data, err := os.ReadFile(victimPath)
	if err != nil {
		t.Fatal(err)
	}
	mangled := append(data[:len(data)/3:len(data)/3], []byte("garbage garbage garbage")...)
	if err := os.WriteFile(victimPath, mangled, 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := NewManager(Config{Checkpoints: store})
	defer m2.Close()
	restored, err := m2.Restore(func(string) core.Options { return testOpts() })
	if err == nil {
		t.Fatal("corrupt on-disk checkpoint must surface an error")
	}
	var rerr *RestoreError
	if !errors.As(err, &rerr) {
		t.Fatalf("error chain lacks *RestoreError: %v", err)
	}
	if rerr.ID != "victim" {
		t.Fatalf("quarantined id = %q, want victim", rerr.ID)
	}
	if len(restored) != 1 || restored[0].ID() != "intact" {
		t.Fatalf("restored = %v, want just the intact session", restored)
	}
	// The corrupt bytes stay on disk, untouched, for the operator.
	after, err := os.ReadFile(victimPath)
	if err != nil {
		t.Fatalf("quarantined file removed: %v", err)
	}
	if string(after) != string(mangled) {
		t.Fatal("quarantined file was modified")
	}
	// The intact session keeps working after the partial restore.
	s := restored[0]
	more, moreSils := testFrames(3)
	for i := range more {
		if err := s.Feed(more[i], moreSils[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionPeriodicCheckpoint(t *testing.T) {
	store := NewMemStore()
	m := NewManager(Config{Checkpoints: store, CheckpointInterval: time.Nanosecond})
	defer m.Close()
	s, err := m.Open("live", testW, testH, testOpts())
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
		t.Fatal(err)
	}
	st := s.Stats()
	// Every frame is past the nanosecond interval, plus the final
	// checkpoint after Finalize.
	if st.Checkpoints < 2 {
		t.Fatalf("checkpoints = %d, want ≥ 2 (periodic + final)", st.Checkpoints)
	}
	if st.CheckpointErrors != 0 {
		t.Fatalf("checkpoint errors = %d", st.CheckpointErrors)
	}
	if st.LastCheckpoint.IsZero() {
		t.Fatal("LastCheckpoint not recorded")
	}
	if _, err := store.Load("live"); err != nil {
		t.Fatalf("no durable checkpoint in the store: %v", err)
	}
}

func TestSessionExplicitCheckpoint(t *testing.T) {
	t.Run("no-store", func(t *testing.T) {
		m := NewManager(Config{})
		defer m.Close()
		s, err := m.Open("x", testW, testH, testOpts())
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err == nil {
			t.Fatal("Checkpoint without a store must error")
		}
		if st := s.Stats(); st.Checkpoints != 0 || st.CheckpointErrors != 0 {
			t.Fatalf("stats polluted: %+v", st)
		}
	})
	t.Run("with-store", func(t *testing.T) {
		store := NewMemStore()
		// Hour-long interval: only the explicit call and the final
		// finalize checkpoint may fire.
		m := NewManager(Config{Checkpoints: store, CheckpointInterval: time.Hour})
		defer m.Close()
		s, err := m.Open("x", testW, testH, testOpts())
		if err != nil {
			t.Fatal(err)
		}
		frames, sils := testFrames(3)
		for i := range frames {
			if err := s.Feed(frames[i], sils[i]); err != nil {
				t.Fatal(err)
			}
		}
		// Every frame processed first: a periodic checkpoint due on any of
		// them would show up in the count below.
		if err := s.Drain(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Checkpoints != 1 {
			t.Fatalf("checkpoints = %d, want exactly the explicit one", st.Checkpoints)
		}
		if _, err := store.Load("x"); err != nil {
			t.Fatal(err)
		}
	})
}

// failStore breaks Save to exercise the error-counting path.
type failStore struct{ *MemStore }

func (f *failStore) Save(id string, data []byte) error {
	return errors.New("disk on fire")
}

func TestSessionCheckpointErrorsCounted(t *testing.T) {
	store := &failStore{MemStore: NewMemStore()}
	m := NewManager(Config{Checkpoints: store, CheckpointInterval: time.Nanosecond})
	defer m.Close()
	s, err := m.Open("x", testW, testH, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	frames, sils := testFrames(4)
	for i := range frames {
		if err := s.Feed(frames[i], sils[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.CheckpointErrors == 0 {
		t.Fatal("failing store produced no checkpoint errors")
	}
	if st.Checkpoints != 0 {
		t.Fatalf("checkpoints = %d on a store that never saves", st.Checkpoints)
	}
	if !st.LastCheckpoint.IsZero() {
		t.Fatal("LastCheckpoint set despite every save failing")
	}
}

// TestEvictThenRestoreRace drives eviction, restore and stats polling
// concurrently under -race: idle sessions are swept (writing their
// final checkpoints) while observers poll and a second manager restores
// from the same store.
func TestEvictThenRestoreRace(t *testing.T) {
	store := NewMemStore()
	// The idle timeout must comfortably exceed any feeder scheduling gap
	// under -race, or a session can be evicted before processing a frame.
	m := NewManager(Config{
		Checkpoints:        store,
		CheckpointInterval: time.Millisecond,
		IdleTimeout:        250 * time.Millisecond,
	})
	defer m.Close()

	const nSessions = 6
	sessions := make([]*Session, nSessions)
	for i := range sessions {
		s, err := m.Open(fmt.Sprintf("call-%d", i), testW, testH, testOpts())
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}

	stop := make(chan struct{})
	var observers sync.WaitGroup
	for o := 0; o < 2; o++ {
		observers.Add(1)
		go func() {
			defer observers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = m.Stats()
				for _, s := range sessions {
					_ = s.Stats()
					_ = s.Snapshot()
				}
				time.Sleep(100 * time.Microsecond) // don't starve the feeders
			}
		}()
	}

	var feeders sync.WaitGroup
	for _, s := range sessions {
		feeders.Add(1)
		go func(s *Session) {
			defer feeders.Done()
			frames, sils := testFrames(15)
			for i := range frames {
				if err := s.Feed(frames[i], sils[i]); err != nil {
					return // evicted mid-feed is fine in this stress
				}
			}
		}(s)
	}
	feeders.Wait()

	// Go idle and wait for the sweeper to evict everyone, writing final
	// checkpoints as it goes.
	deadline := time.Now().Add(5 * time.Second)
	for m.Len() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if m.Len() != 0 {
		t.Fatal("sessions not evicted")
	}
	close(stop)
	observers.Wait()

	ids, err := store.List()
	if err != nil || len(ids) != nSessions {
		t.Fatalf("store holds %d checkpoints after eviction, want %d", len(ids), nSessions)
	}

	// Restore the evicted fleet in a fresh manager while more observers
	// hammer it.
	m2 := NewManager(Config{Checkpoints: store})
	defer m2.Close()
	restored, err := m2.Restore(func(id string) core.Options { return testOpts() })
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != nSessions {
		t.Fatalf("restored %d, want %d", len(restored), nSessions)
	}
	for _, s := range restored {
		st := s.Stats()
		if !st.Restored || !st.Finalized {
			t.Fatalf("%s: restored=%v finalized=%v; evicted sessions checkpoint post-finalize", s.ID(), st.Restored, st.Finalized)
		}
		if s.Snapshot().Coverage.Count() == 0 {
			t.Fatalf("%s lost its reconstruction across evict+restore", s.ID())
		}
	}
}

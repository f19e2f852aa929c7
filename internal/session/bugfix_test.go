package session

// Regression tests for the streaming/durability bugfix sweep: DirStore
// temp-file reclamation, publish-after-init session registration, and
// the Drain/Detach/ResumeSession migration primitives the fleet layer
// is built on.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/bgbuster/bgbuster/internal/core"
)

// plant drops a file into dir.
func plant(t *testing.T, dir, name string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte("debris"), 0o644); err != nil {
		t.Fatal(err)
	}
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestDirStoreSweepReclaimsTempDebris: the open-time sweep and the
// exported Sweep must reclaim every class of temp-file debris a crash
// can leave behind — interrupted Save temporaries, writability probes,
// and generic .tmp leftovers — without touching real checkpoints.
func TestDirStoreSweepReclaimsTempDebris(t *testing.T) {
	dir := t.TempDir()
	plant(t, dir, "tmp-123456"+checkpointExt+".partial")
	plant(t, dir, ".probe-98765")
	plant(t, dir, "stale-upload.tmp")
	plant(t, dir, "README") // foreign, not debris: must survive

	d, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d.Orphans()); got != 3 {
		t.Fatalf("open-time sweep reclaimed %d files (%v), want 3", got, d.Orphans())
	}
	if err := d.Save("call-1", []byte("checkpoint-bytes")); err != nil {
		t.Fatal(err)
	}

	// Debris appearing while the store is open: Sweep reclaims it, the
	// checkpoint and the foreign file survive.
	plant(t, dir, "tmp-late"+checkpointExt+".partial")
	plant(t, dir, "late.tmp")
	removed, err := d.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 2 {
		t.Fatalf("Sweep removed %v, want 2 entries", removed)
	}
	names := dirNames(t, dir)
	if len(names) != 2 {
		t.Fatalf("directory holds %v, want only the checkpoint and README", names)
	}
	for _, n := range names {
		if n != "README" && !strings.HasSuffix(n, checkpointExt) {
			t.Fatalf("unexpected survivor %q", n)
		}
	}
	if data, err := d.Load("call-1"); err != nil || string(data) != "checkpoint-bytes" {
		t.Fatalf("checkpoint damaged by sweep: %q, %v", data, err)
	}
	if got := len(d.Orphans()); got != 5 {
		t.Fatalf("Orphans reports %d entries, want 5 (3 at open + 2 swept)", got)
	}
}

// TestDirStoreSaveRenameFailureLeavesNoTemp: when the atomic rename
// fails (here: the destination name is occupied by a directory), Save
// must report the error AND reclaim its temp file — a retrying session
// checkpointing every few seconds must not fill the volume with
// orphaned partials.
func TestDirStoreSaveRenameFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the destination path with a directory so rename fails.
	if err := os.Mkdir(d.path("blocked"), 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := d.Save("blocked", []byte("payload")); err == nil {
			t.Fatal("Save succeeded over a directory destination")
		}
	}
	for _, n := range dirNames(t, dir) {
		if isOrphanName(n) {
			t.Fatalf("failed Save leaked temp %q", n)
		}
	}
	// And a subsequent Sweep still reports a clean directory.
	removed, err := d.Sweep()
	if err != nil || len(removed) != 0 {
		t.Fatalf("Sweep after failed saves: removed=%v err=%v, want none", removed, err)
	}
}

// TestRestoreConcurrentStats: Manager.Stats hammered during a
// concurrent Restore must never observe a half-initialized session —
// the regression was register publishing the session into the map
// before its provenance fields were written (caught under -race).
func TestRestoreConcurrentStats(t *testing.T) {
	store := NewMemStore()
	seed := NewManager(Config{Checkpoints: store})
	frames, sils := testFrames(6)
	ids := []string{"r-0", "r-1", "r-2", "r-3", "r-4", "r-5"}
	for _, id := range ids {
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
	if err := seed.Close(); err != nil {
		t.Fatal(err) // final checkpoints written on close
	}

	m := NewManager(Config{Checkpoints: store})
	defer m.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := m.Stats()
				for _, ss := range snap.Sessions {
					if ss.Restored && ss.ID == "" {
						t.Error("impossible snapshot") // keeps the reads live
					}
				}
			}
		}()
	}
	restored, err := m.Restore(func(string) core.Options { return testOpts() })
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != len(ids) {
		t.Fatalf("restored %d sessions, want %d", len(restored), len(ids))
	}
}

// TestMigrationParityBitIdentical: detaching a live session at frame k
// and resuming it under a different manager must produce canonical
// checkpoint bytes bit-identical to an unmigrated run — at every
// tested k, including ones inside the identification window, and both
// before and after Finalize. This is the lossless-migration guarantee
// the fleet coordinator is built on.
func TestMigrationParityBitIdentical(t *testing.T) {
	const n = 20
	frames, sils := testFrames(n)
	feed := func(s *Session, from, to int, batch bool) {
		t.Helper()
		if batch {
			fs := make([]core.Frame, 0, to-from)
			for i := from; i < to; i++ {
				fs = append(fs, core.Frame{Img: frames[i], Oracle: sils[i]})
			}
			if err := s.FeedN(fs); err != nil {
				t.Fatal(err)
			}
			return
		}
		for i := from; i < to; i++ {
			if err := s.Feed(frames[i], sils[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	drain := func(s *Session) {
		t.Helper()
		if err := s.Drain(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []int{2, 5, 8, 12} {
		for _, batch := range []bool{false, true} {
			// Unmigrated baseline.
			mBase := NewManager(Config{})
			base, err := mBase.Open("mig", testW, testH, testOpts())
			if err != nil {
				t.Fatal(err)
			}
			feed(base, 0, n, batch)
			drain(base)
			want, err := base.CheckpointBytes()
			if err != nil {
				t.Fatal(err)
			}

			// Shard A: feed k frames, detach.
			mA := NewManager(Config{})
			a, err := mA.Open("mig", testW, testH, testOpts())
			if err != nil {
				t.Fatal(err)
			}
			feed(a, 0, k, batch)
			drain(a)
			ckpt, err := a.Detach()
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := mA.Get("mig"); ok {
				t.Fatal("detached session still registered on shard A")
			}

			// Shard B: resume from the wire bytes, feed the rest.
			mB := NewManager(Config{})
			b, err := mB.ResumeSession("mig", ckpt, testOpts())
			if err != nil {
				t.Fatal(err)
			}
			if st := b.Stats(); !st.Restored || st.ResumedFrames != uint64(k) {
				t.Fatalf("k=%d: resumed session reports restored=%v frames=%d", k, st.Restored, st.ResumedFrames)
			}
			feed(b, k, n, batch)
			drain(b)
			got, err := b.CheckpointBytes()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("k=%d batch=%v: live checkpoint bytes diverge after migration", k, batch)
			}

			// Finalize both and compare the pinned state too.
			if err := base.Finalize(); err != nil {
				t.Fatal(err)
			}
			if err := b.Finalize(); err != nil {
				t.Fatal(err)
			}
			want2, err := base.CheckpointBytes()
			if err != nil {
				t.Fatal(err)
			}
			got2, err := b.CheckpointBytes()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want2, got2) {
				t.Fatalf("k=%d batch=%v: finalized checkpoint bytes diverge after migration", k, batch)
			}
			mBase.Close()
			mA.Close()
			mB.Close()
		}
	}
}

// TestResumeSessionDuplicate: resuming onto an id that is already open
// is an ErrExists rejection, not a silent replacement.
func TestResumeSessionDuplicate(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	s, err := m.Open("dup", testW, testH, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := s.CheckpointBytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ResumeSession("dup", ckpt, testOpts()); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate ResumeSession: %v, want ErrExists", err)
	}
}

// TestDrainBarrier: Drain returns once every fed frame is accounted
// for, times out while the worker is busy, and returns immediately for
// an exited worker.
func TestDrainBarrier(t *testing.T) {
	// The slow stage must be in the worker's per-frame path, so
	// identification pins on the first frame (pre-pin frames are only
	// stashed in the pending window) and every frame then segments.
	m := NewManager(Config{})
	defer m.Close()
	opts := testOpts()
	opts.IdentifyAfter = 1
	opts.Segmenter = slowSegmenter{d: 30 * time.Millisecond}
	s, err := m.Open("drain", testW, testH, opts)
	if err != nil {
		t.Fatal(err)
	}
	frames, sils := testFrames(3)
	for i := range frames {
		if err := s.Feed(frames[i], sils[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(time.Millisecond); err == nil {
		t.Fatal("Drain(1ms) returned nil while the worker is mid-frame")
	}
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.FramesFed != st.FramesProcessed+st.FramesRejected+st.FramesDropped {
		t.Fatalf("post-drain invariant broken: fed=%d processed=%d rejected=%d dropped=%d",
			st.FramesFed, st.FramesProcessed, st.FramesRejected, st.FramesDropped)
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(time.Millisecond); err != nil {
		t.Fatalf("Drain after worker exit: %v, want nil", err)
	}
}

package session

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/bgbuster/bgbuster/internal/core"
	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/segment"
)

const testW, testH = 32, 24

// testDict is a two-candidate known-image dictionary; calls built by
// testFrames use "flat" as their virtual background.
func testDict() map[string]*imagex.Image {
	return map[string]*imagex.Image{
		"flat":  imagex.NewFilled(testW, testH, imagex.RGB{R: 20, G: 120, B: 220}),
		"other": imagex.NewFilled(testW, testH, imagex.RGB{R: 200, G: 10, B: 10}),
	}
}

// testFrames builds n frames that are pure "flat" VB except a leaked
// background rectangle, plus empty oracle silhouettes: every pixel of
// the rectangle far enough from the VB is a genuine residue.
func testFrames(n int) ([]*imagex.Image, []*imagex.Mask) {
	frames := make([]*imagex.Image, n)
	sils := make([]*imagex.Mask, n)
	for i := range frames {
		f := imagex.NewFilled(testW, testH, imagex.RGB{R: 20, G: 120, B: 220})
		for y := 4; y < 16; y++ {
			for x := 8; x < 24; x++ {
				f.Set(x, y, imagex.RGB{R: 240, G: 240, B: 60})
			}
		}
		frames[i] = f
		sils[i] = imagex.NewMask(testW, testH)
	}
	return frames, sils
}

func testOpts() core.Options {
	o := core.DefaultOptions()
	o.KnownImages = testDict()
	o.Segmenter = segment.OracleSegmenter{}
	o.ColorRefine = false
	return o
}

// slowSegmenter delays every frame so queues can fill up.
type slowSegmenter struct{ d time.Duration }

func (s slowSegmenter) Segment(frame *imagex.Image, oracle *imagex.Mask) *imagex.Mask {
	time.Sleep(s.d)
	return segment.OracleSegmenter{}.Segment(frame, oracle)
}

// panicSegmenter poisons a session on its first processed frame.
type panicSegmenter struct{}

func (panicSegmenter) Segment(frame *imagex.Image, oracle *imagex.Mask) *imagex.Mask {
	panic("segmenter exploded")
}

func TestSessionLifecycle(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()

	s, err := m.Open("call-1", testW, testH, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	frames, sils := testFrames(15)
	for i := range frames {
		if err := s.Feed(frames[i], sils[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}

	st := s.Stats()
	if st.FramesFed != 15 || st.FramesProcessed != 15 || st.FramesDropped != 0 || st.FramesRejected != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if !st.Identified || st.VBName != "flat" {
		t.Fatalf("identification missing: %+v", st)
	}
	if st.IdentifyLatency <= 0 {
		t.Fatal("identify-pin latency not recorded")
	}
	if st.FeedLatency.Count != 15 {
		t.Fatalf("feed latency count = %d", st.FeedLatency.Count)
	}
	if st.CoveragePct <= 0 {
		t.Fatal("no coverage on a leaking call")
	}
	if !st.Finalized {
		t.Fatal("not finalized")
	}
	snap := s.Snapshot()
	if snap.Coverage.Count() == 0 || snap.VBName != "flat" {
		t.Fatalf("snapshot empty: coverage=%d vb=%q", snap.Coverage.Count(), snap.VBName)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 {
		t.Fatalf("session not removed: %d open", m.Len())
	}
	ms := m.Stats()
	if ms.Opened != 1 || ms.Closed != 1 || ms.Open != 0 {
		t.Fatalf("manager stats = %+v", ms)
	}
	// The handle stays readable after Close.
	if s.Snapshot().Coverage.Count() == 0 {
		t.Fatal("snapshot unreadable after Close")
	}
}

// TestSessionShortCallFinalize mirrors the core short-call regression
// at the session layer: fewer frames than the identification window
// must still produce a non-empty reconstruction after Finalize.
func TestSessionShortCallFinalize(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	s, err := m.Open("short", testW, testH, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	frames, sils := testFrames(4) // < DefaultIdentifyAfter
	for i := range frames {
		if err := s.Feed(frames[i], sils[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if !st.Identified || st.VBName != "flat" {
		t.Fatalf("short call not pinned: %+v", st)
	}
	if s.Snapshot().Coverage.Count() == 0 {
		t.Fatal("short call reconstruction empty")
	}
}

func TestManagerOpenErrors(t *testing.T) {
	m := NewManager(Config{})
	if _, err := m.Open("dup", testW, testH, testOpts()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open("dup", testW, testH, testOpts()); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate id error = %v", err)
	}
	bad := testOpts()
	bad.Segmenter = nil
	if _, err := m.Open("bad", testW, testH, bad); err == nil {
		t.Fatal("nil segmenter accepted")
	}
	m.Close()
	if _, err := m.Open("late", testW, testH, testOpts()); !errors.Is(err, ErrClosed) {
		t.Fatalf("open on closed manager = %v", err)
	}
	m.Close() // idempotent
}

func TestSessionDropOldestPolicy(t *testing.T) {
	m := NewManager(Config{QueueDepth: 2})
	defer m.Close()
	opts := testOpts()
	opts.Segmenter = slowSegmenter{d: 5 * time.Millisecond}
	s, err := m.Open("slow", testW, testH, opts)
	if err != nil {
		t.Fatal(err)
	}
	frames, sils := testFrames(40)
	for i := range frames {
		if err := s.Feed(frames[i], sils[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.FramesDropped == 0 {
		t.Fatal("a 2-deep queue under a 5ms/frame reconstructor must drop frames")
	}
	if st.FramesDropped+st.FramesProcessed+st.FramesRejected != st.FramesFed {
		t.Fatalf("frame accounting leaks: %+v", st)
	}
	if s.Snapshot().Coverage.Count() == 0 {
		t.Fatal("dropped frames must not empty the reconstruction")
	}
}

func TestSessionMalformedFramesDegradeGracefully(t *testing.T) {
	m := NewManager(Config{})
	defer m.Close()
	s, err := m.Open("mixed", testW, testH, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	frames, sils := testFrames(12)
	for i := range frames {
		if err := s.Feed(frames[i], sils[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Mid-call geometry change and a nil oracle: rejected, not fatal.
	if err := s.Feed(imagex.New(8, 8), imagex.NewMask(8, 8)); err != nil {
		t.Fatal(err)
	}
	if err := s.Feed(imagex.New(testW, testH), nil); err != nil {
		t.Fatal(err)
	}
	more, moreSils := testFrames(3)
	for i := range more {
		if err := s.Feed(more[i], moreSils[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.FramesRejected != 2 {
		t.Fatalf("rejected = %d, want 2", st.FramesRejected)
	}
	if st.FramesProcessed != 15 {
		t.Fatalf("processed = %d, want 15", st.FramesProcessed)
	}
	if s.Snapshot().Coverage.Count() == 0 {
		t.Fatal("malformed frames emptied the reconstruction")
	}
}

// TestSessionPanicIsolation: a worker panic fails only its own session,
// whichever intake fed the poisoned frames, and leaves the failed
// session's Snapshot and Stats answerable — a panic must not leave the
// stream lock held.
func TestSessionPanicIsolation(t *testing.T) {
	frames, sils := testFrames(12)
	fs := make([]core.Frame, len(frames))
	for i := range fs {
		fs[i] = core.Frame{Img: frames[i], Oracle: sils[i]}
	}
	for _, leg := range []struct {
		name  string
		n     int
		batch bool
	}{
		{"Feed", 12, false},
		{"FeedN", 12, true},           // the panic fires inside the batch
		{"FeedN short call", 3, true}, // under IdentifyAfter: the panic fires in Finalize
	} {
		feed := func(s *Session) error {
			if leg.batch {
				return s.FeedN(fs[:leg.n])
			}
			for i := 0; i < leg.n; i++ {
				if err := s.Feed(frames[i], sils[i]); err != nil {
					return err
				}
			}
			return nil
		}
		t.Run(leg.name, func(t *testing.T) {
			m := NewManager(Config{})
			defer m.Close()

			bad := testOpts()
			bad.Segmenter = panicSegmenter{}
			poisoned, err := m.Open("poisoned", testW, testH, bad)
			if err != nil {
				t.Fatal(err)
			}
			healthy, err := m.Open("healthy", testW, testH, testOpts())
			if err != nil {
				t.Fatal(err)
			}

			_ = feed(poisoned) // may see ErrFailed once the worker died
			if err := feed(healthy); err != nil {
				t.Fatal(err)
			}
			if err := poisoned.Finalize(); !errors.Is(err, ErrFailed) {
				t.Fatalf("poisoned Finalize = %v, want ErrFailed", err)
			}
			if poisoned.Failure() == "" {
				t.Fatal("panic message lost")
			}
			observed := make(chan struct{})
			go func() {
				poisoned.Snapshot()
				poisoned.Stats()
				close(observed)
			}()
			select {
			case <-observed:
			case <-time.After(2 * time.Second):
				t.Fatal("Snapshot/Stats of the panicked session did not return: stream lock left held")
			}
			if err := poisoned.Feed(frames[0], sils[0]); !errors.Is(err, ErrFailed) {
				t.Fatalf("Feed after panic = %v, want ErrFailed", err)
			}
			if err := healthy.Finalize(); err != nil {
				t.Fatalf("healthy session infected: %v", err)
			}
			if healthy.Snapshot().Coverage.Count() == 0 {
				t.Fatal("healthy session lost its reconstruction")
			}
			if got := m.Stats().Panics; got != 1 {
				t.Fatalf("manager panics = %d, want 1", got)
			}
		})
	}
}

func TestManagerIdleEviction(t *testing.T) {
	m := NewManager(Config{IdleTimeout: 60 * time.Millisecond})
	defer m.Close()
	s, err := m.Open("idle", testW, testH, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	frames, sils := testFrames(3)
	for i := range frames {
		if err := s.Feed(frames[i], sils[i]); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for m.Len() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if m.Len() != 0 {
		t.Fatal("idle session not evicted")
	}
	if !s.Evicted() {
		t.Fatal("session not marked evicted")
	}
	if err := s.Feed(frames[0], sils[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Feed after eviction = %v, want ErrClosed", err)
	}
	if got := m.Stats().Evicted; got != 1 {
		t.Fatalf("evicted counter = %d", got)
	}
	// The evicted session finalized: its short-call reconstruction is
	// pinned and readable.
	if !s.Stats().Finalized || s.Snapshot().Coverage.Count() == 0 {
		t.Fatal("evicted session not finalized with a readable snapshot")
	}
}

// TestManagerTinyIdleTimeoutSweeps: an idle timeout below 4ns has a
// zero quarter, which must not reach time.NewTicker (it panics on a
// non-positive period). The sweep runs at its floor and still evicts.
func TestManagerTinyIdleTimeoutSweeps(t *testing.T) {
	m := NewManager(Config{IdleTimeout: 3 * time.Nanosecond})
	defer m.Close()
	s, err := m.Open("idle", testW, testH, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for m.Len() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if m.Len() != 0 || !s.Evicted() {
		t.Fatal("idle session not evicted under a 3ns idle timeout")
	}
	if got := m.Stats().Evicted; got != 1 {
		t.Fatalf("evicted counter = %d", got)
	}
}

// TestManagerConcurrentSessions is the -race stress required by the
// issue: ≥8 live sessions fed concurrently while observers poll stats,
// with malformed frames mixed in.
func TestManagerConcurrentSessions(t *testing.T) {
	const nSessions, nFrames = 10, 40
	m := NewManager(Config{QueueDepth: 8})
	defer m.Close()

	sessions := make([]*Session, nSessions)
	for i := range sessions {
		s, err := m.Open(fmt.Sprintf("call-%02d", i), testW, testH, testOpts())
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}

	stop := make(chan struct{})
	var observers sync.WaitGroup
	for o := 0; o < 3; o++ {
		observers.Add(1)
		go func() {
			defer observers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ms := m.Stats()
				if ms.Open > nSessions {
					t.Error("impossible open count")
					return
				}
				for _, s := range sessions {
					_ = s.Snapshot()
				}
			}
		}()
	}

	var feeders sync.WaitGroup
	for _, s := range sessions {
		feeders.Add(1)
		go func(s *Session) {
			defer feeders.Done()
			frames, sils := testFrames(nFrames)
			for i := range frames {
				if i%13 == 7 {
					_ = s.Feed(imagex.New(3, 3), imagex.NewMask(3, 3)) // malformed
				}
				if err := s.Feed(frames[i], sils[i]); err != nil {
					t.Errorf("feed %s: %v", s.ID(), err)
					return
				}
			}
			if err := s.Finalize(); err != nil {
				t.Errorf("finalize %s: %v", s.ID(), err)
			}
		}(s)
	}
	feeders.Wait()
	close(stop)
	observers.Wait()

	for _, s := range sessions {
		st := s.Stats()
		if st.FramesDropped+st.FramesProcessed+st.FramesRejected != st.FramesFed {
			t.Fatalf("%s accounting leaks: %+v", s.ID(), st)
		}
		if s.Snapshot().Coverage.Count() == 0 {
			t.Fatalf("%s reconstructed nothing", s.ID())
		}
		if !st.Identified {
			t.Fatalf("%s never identified", s.ID())
		}
	}
	ms := m.Stats()
	if ms.Opened != nSessions || ms.Panics != 0 {
		t.Fatalf("manager stats = %+v", ms)
	}
}

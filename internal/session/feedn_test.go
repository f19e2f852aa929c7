package session

import (
	"sync"
	"testing"
	"time"

	"github.com/bgbuster/bgbuster/internal/core"
)

// TestSessionFeedNMatchesFeed: batch intake must leave the same
// reconstruction as frame-at-a-time intake, with frame-accurate
// counters (fed and processed count frames, not batches).
func TestSessionFeedNMatchesFeed(t *testing.T) {
	frames, sils := testFrames(24)

	mgr := NewManager(Config{})
	defer mgr.Close()
	one, err := mgr.Open("one", testW, testH, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	batch, err := mgr.Open("batch", testW, testH, testOpts())
	if err != nil {
		t.Fatal(err)
	}

	var fs []core.Frame
	for i := range frames {
		if err := one.Feed(frames[i], sils[i]); err != nil {
			t.Fatal(err)
		}
		fs = append(fs, core.Frame{Img: frames[i], Oracle: sils[i]})
	}
	for i := 0; i < len(fs); i += 7 {
		j := i + 7
		if j > len(fs) {
			j = len(fs)
		}
		if err := mgr.FeedN("batch", fs[i:j]); err != nil {
			t.Fatal(err)
		}
	}
	if err := one.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := batch.Finalize(); err != nil {
		t.Fatal(err)
	}

	so, sb := one.Stats(), batch.Stats()
	if sb.FramesFed != uint64(len(fs)) || sb.FramesProcessed != uint64(len(fs)) {
		t.Fatalf("batch counters fed=%d processed=%d, want %d frames", sb.FramesFed, sb.FramesProcessed, len(fs))
	}
	if so.FramesProcessed != sb.FramesProcessed {
		t.Fatalf("processed: feed=%d batch=%d", so.FramesProcessed, sb.FramesProcessed)
	}
	ro, rb := one.Snapshot(), batch.Snapshot()
	if !ro.Recovered.Equal(rb.Recovered) || !ro.Coverage.Equal(rb.Coverage) {
		t.Fatal("batch-fed reconstruction differs from frame-at-a-time")
	}
	if sb.MemBytes == 0 || so.MemBytes != sb.MemBytes {
		t.Fatalf("MemBytes: feed=%d batch=%d", so.MemBytes, sb.MemBytes)
	}
}

// TestSessionFeedNRecoverableFaults: malformed frames inside a batch
// are counted as rejected without failing the session.
func TestSessionFeedNRecoverableFaults(t *testing.T) {
	frames, sils := testFrames(4)
	mgr := NewManager(Config{})
	defer mgr.Close()
	s, err := mgr.Open("s", testW, testH, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	fs := []core.Frame{
		{Img: frames[0], Oracle: sils[0]},
		{Img: nil, Oracle: sils[1]}, // recoverable at the reconstructor
		{Img: frames[2], Oracle: nil},
		{Img: frames[3], Oracle: sils[3]},
	}
	if err := s.FeedN(fs); err != nil {
		t.Fatal(err)
	}
	if err := s.FeedN(nil); err != nil {
		t.Fatal("empty batch must be a no-op")
	}
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.FramesFed != 4 || st.FramesProcessed != 2 || st.FramesRejected != 2 {
		t.Fatalf("fed=%d processed=%d rejected=%d, want 4/2/2",
			st.FramesFed, st.FramesProcessed, st.FramesRejected)
	}
}

// TestSessionFeedNDropOldest: a batch occupies one queue slot, and a
// later FeedN that finds the queue full evicts the queued batch whole,
// counting every one of its frames dropped, without ever returning an
// error to the feeder.
func TestSessionFeedNDropOldest(t *testing.T) {
	frames, sils := testFrames(8)
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	opts := testOpts()
	opts.IdentifyAfter = 1 // the first fed frame reaches the segmenter
	opts.Segmenter = gateSegmenter{release: release}
	mgr := NewManager(Config{QueueDepth: 1})
	defer mgr.Close()
	defer unblock() // runs before Close, so a failure cannot wedge cleanup
	s, err := mgr.Open("s", testW, testH, opts)
	if err != nil {
		t.Fatal(err)
	}
	batch := func(i, j int) []core.Frame {
		var fs []core.Frame
		for ; i < j; i++ {
			fs = append(fs, core.Frame{Img: frames[i], Oracle: sils[i]})
		}
		return fs
	}
	feed := func(fs []core.Frame) {
		t.Helper()
		if err := s.FeedN(fs); err != nil {
			t.Fatalf("FeedN under overload: %v", err)
		}
	}

	// Wedge the worker inside batch A, so the one queue slot is all the
	// room there is. The worker holds the stream lock while wedged, so
	// the counters are read directly rather than through Stats.
	feed(batch(0, 1))
	deadline := time.Now().Add(10 * time.Second)
	for len(s.queue) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never took the first batch")
		}
		time.Sleep(time.Millisecond)
	}
	feed(batch(1, 4)) // B (3 frames) takes the free slot
	if d := s.dropped.Load(); d != 0 {
		t.Fatalf("dropped=%d with a free slot, want 0", d)
	}
	feed(batch(4, 6)) // C evicts B
	if d := s.dropped.Load(); d != 3 {
		t.Fatalf("dropped=%d after evicting B, want its 3 frames", d)
	}
	feed(batch(6, 8)) // D evicts C
	if d := s.dropped.Load(); d != 5 {
		t.Fatalf("dropped=%d after evicting C, want 3+2", d)
	}

	unblock()
	if err := s.Finalize(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.FramesFed != 8 || st.FramesDropped != 5 {
		t.Fatalf("fed=%d dropped=%d, want 8/5", st.FramesFed, st.FramesDropped)
	}
	if st.FramesFed != st.FramesProcessed+st.FramesDropped+st.FramesRejected {
		t.Fatalf("frame accounting leaks: %+v", st)
	}
}

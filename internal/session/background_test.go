package session

// Tests for the manager's background checks: the watchdog's stall
// episodes, the close deadline, and the goroutines each setting starts.

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// waitFor polls cond every millisecond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWatchdogStallEpisodes: a session idle past StallTimeout is
// degraded and counted once per episode; the next Feed resets the
// latch, so a second idle spell is a second episode.
func TestWatchdogStallEpisodes(t *testing.T) {
	const stall = 100 * time.Millisecond
	m := NewManager(Config{StallTimeout: stall})
	defer m.Close()
	s, err := m.Open("quiet", testW, testH, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	// The watchdog counts the stall, then degrades and records why.
	waitFor(t, "the first stall", func() bool { return len(s.HealthReasons()) == 1 })
	if got := s.Stats().Stalls; got != 1 {
		t.Fatalf("stalls = %d, want 1", got)
	}
	if s.Health() != Degraded {
		t.Fatalf("stalled session health %v, want degraded", s.Health())
	}
	if reasons := s.HealthReasons(); !strings.Contains(reasons[0], "stalled: no stream activity for "+stall.String()) {
		t.Fatalf("health reasons %q, want the stall reason", reasons)
	}
	// One episode is counted once, however many watchdog ticks see it.
	time.Sleep(stall)
	if got := s.Stats().Stalls; got != 1 {
		t.Fatalf("stalls = %d during one episode, want 1", got)
	}

	frames, sils := testFrames(1)
	if err := s.Feed(frames[0], sils[0]); err != nil {
		t.Fatal(err)
	}
	if s.stallLatch.Load() {
		t.Fatal("Feed did not reset the stall latch")
	}
	waitFor(t, "the second stall", func() bool { return len(s.HealthReasons()) == 2 })
	if got := s.Stats().Stalls; got != 2 {
		t.Fatalf("stalls = %d, want 2", got)
	}
	if got := m.Stats().Stalls; got != 2 {
		t.Fatalf("manager stalls = %d, want 2", got)
	}
	if got := m.Stats().Degraded; got != 1 {
		t.Fatalf("manager degrades = %d, want 1: health stays degraded across episodes", got)
	}
}

// TestCloseTimeoutAbandonsStuckWorker: a worker still inside a slow
// segmenter at the CloseTimeout deadline is abandoned — counted,
// degraded and named in Close's error — and Close does not wait for it.
func TestCloseTimeoutAbandonsStuckWorker(t *testing.T) {
	const hold = 500 * time.Millisecond
	m := NewManager(Config{CloseTimeout: 50 * time.Millisecond})
	opts := testOpts()
	opts.IdentifyAfter = 1 // the first frame reaches the segmenter
	opts.Segmenter = slowSegmenter{d: hold}
	s, err := m.Open("stuck", testW, testH, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { <-s.done }() // leave no worker behind for later tests
	frames, sils := testFrames(1)
	if err := s.Feed(frames[0], sils[0]); err != nil {
		t.Fatal(err)
	}

	t0 := time.Now()
	err = m.Close()
	if took := time.Since(t0); took >= hold {
		t.Fatalf("Close took %s, waiting out the stuck worker", took)
	}
	if err == nil || !strings.Contains(err.Error(), `session "stuck": close deadline exceeded`) {
		t.Fatalf("Close error %v, want the stuck session named", err)
	}
	if got := m.Stats().Abandoned; got != 1 {
		t.Fatalf("abandoned = %d, want 1", got)
	}
	if m.Len() != 0 {
		t.Fatalf("%d sessions still registered after Close", m.Len())
	}
	if s.Health() != Degraded {
		t.Fatalf("abandoned session health %v, want degraded", s.Health())
	}
}

// TestManagerBackgroundGoroutines: a Manager starts a goroutine only
// for a background check that is switched on, and Close with all three
// on leaves none running.
func TestManagerBackgroundGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"zero", Config{}},
		{"checkpoints", Config{Checkpoints: NewMemStore()}},
	} {
		before := runtime.NumGoroutine()
		m := NewManager(tc.cfg)
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%s: NewManager took goroutines %d -> %d, want none started", tc.name, before, after)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}

	before := runtime.NumGoroutine()
	m := NewManager(Config{
		IdleTimeout:  time.Minute,
		StallTimeout: time.Minute,
		AutoRestart:  true,
	})
	if after := runtime.NumGoroutine(); after > before+3 {
		t.Fatalf("armed manager took goroutines %d -> %d, want one per check", before, after)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Close waits for each check to finish its step; the goroutine's
	// own return follows a moment later.
	waitFor(t, "the checks to exit", func() bool { return runtime.NumGoroutine() <= before })
}

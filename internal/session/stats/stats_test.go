package stats

import (
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	c.Add(5)
	if got := c.Load(); got != 8005 {
		t.Fatalf("counter = %d, want 8005", got)
	}
}

func TestLatencySummary(t *testing.T) {
	var l Latency
	if s := l.Summary(); s.Count != 0 || s.Mean != 0 || s.Max != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	l.Observe(10 * time.Millisecond)
	l.Observe(30 * time.Millisecond)
	s := l.Summary()
	if s.Count != 2 || s.Mean != 20*time.Millisecond || s.Max != 30*time.Millisecond {
		t.Fatalf("summary = %+v", s)
	}
}

// Package stats provides the lock-light observability primitives the
// live-session layer publishes: monotonic counters and latency
// aggregates. Everything is safe for concurrent use and readable at any
// instant without stopping the writer — the contract the session
// manager needs to expose per-stage numbers mid-call.
package stats

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonic uint64 counter safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Latency aggregates duration observations into count, mean and max.
type Latency struct {
	mu    sync.Mutex
	count uint64
	sum   time.Duration
	max   time.Duration
}

// Observe records one duration.
func (l *Latency) Observe(d time.Duration) {
	l.mu.Lock()
	l.count++
	l.sum += d
	if d > l.max {
		l.max = d
	}
	l.mu.Unlock()
}

// LatencySummary is a point-in-time view of a Latency.
type LatencySummary struct {
	Count uint64
	Mean  time.Duration
	Max   time.Duration
}

// Summary returns the current aggregate.
func (l *Latency) Summary() LatencySummary {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := LatencySummary{Count: l.count, Max: l.max}
	if l.count > 0 {
		s.Mean = l.sum / time.Duration(l.count)
	}
	return s
}

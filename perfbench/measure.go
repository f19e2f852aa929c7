package main

import (
	"bytes"
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/segment"
)

const (
	fps    = 30
	period = time.Second / fps
	// setupReps is how many times a run builds its system; setup_s is
	// the median, and the last build is the one measured.
	setupReps = 11
)

// cpuNow is the process's user+system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// liveHeap is the live heap in bytes after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapMBAbove is the live heap above base, in MB.
func heapMBAbove(base uint64) float64 {
	h := liveHeap()
	if h < base {
		return 0
	}
	return float64(h-base) / (1 << 20)
}

// window measures process CPU, wall time and Go runtime activity over
// one measured interval.
type window struct {
	wall0 time.Time
	cpu0  time.Duration
	ms0   runtime.MemStats
}

// startWindow opens a window whose wall time counts from start.
func startWindow(start time.Time) *window {
	w := &window{wall0: start}
	runtime.ReadMemStats(&w.ms0)
	w.cpu0 = cpuNow()
	return w
}

// windowStats is what a window measured.
type windowStats struct {
	wall, cpu time.Duration
	gcCycles  uint32
	gcPause   time.Duration
	allocB    uint64
}

func (w *window) stop(end time.Time) windowStats {
	cpu := cpuNow()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return windowStats{
		wall:     end.Sub(w.wall0),
		cpu:      cpu - w.cpu0,
		gcCycles: ms.NumGC - w.ms0.NumGC,
		gcPause:  time.Duration(ms.PauseTotalNs - w.ms0.PauseTotalNs),
		allocB:   ms.TotalAlloc - w.ms0.TotalAlloc,
	}
}

// setRuntime records the runtime.* per-layer metrics of a window.
func (ws windowStats) setRuntime(o *outcome) {
	o.set("runtime.gc_cycles", float64(ws.gcCycles))
	o.set("runtime.gc_pause_ms", ms(ws.gcPause))
	o.set("runtime.alloc_mb_per_s", float64(ws.allocB)/(1<<20)/ws.wall.Seconds())
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile[T cmp.Ordered](xs []T, q float64) T {
	var zero T
	if len(xs) == 0 {
		return zero
	}
	s := append([]T(nil), xs...)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median[T cmp.Ordered](xs []T) T { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// total sums ds.
func total(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// pingPong maps step n onto a recording of length l played forwards,
// then backwards, and so on, so consecutive steps always show adjacent
// frames however long a run lasts.
func pingPong(n, l int) int {
	if l <= 1 {
		return 0
	}
	p := n % (2*l - 2)
	if p >= l {
		p = 2*l - 2 - p
	}
	return p
}

// parallel runs fn(0..n-1) on at most GOMAXPROCS goroutines and
// returns the lowest-index error.
func parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	next := make(chan int, n) // sized to the number of sends
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// openLoop is the open-loop load generator: the calling goroutine sends
// event i at dueAt(i) whatever the system's state, and one observer
// goroutine waits on each sent event in order. It returns how late the
// generator ran for each event.
func openLoop(events int, dueAt func(i int) time.Time, send func(i int), observe func(i int, due time.Time)) []time.Duration {
	sent := make(chan int, events) // sized to the number of sends
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range sent {
			observe(i, dueAt(i))
		}
	}()
	late := make([]time.Duration, 0, events)
	for i := 0; i < events; i++ {
		due := dueAt(i)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late = append(late, time.Since(due))
		send(i)
		sent <- i
	}
	close(sent)
	<-done
	return late
}

// setupTimes are the medians of a system's builds.
type setupTimes struct {
	// cpu is the process CPU time a build takes: the gated setup_s.
	// Work moved into set-up shows in it, and unlike wall time it does
	// not grow when other tenants of a shared host take the cores.
	cpu time.Duration
	// wall is the build's wall time, printed beside it.
	wall time.Duration
}

// setupMedian builds a system reps times, tears down all but the last
// build and returns it with the median build times. build returns the
// system, ready, and its teardown. A collection before each build keeps
// the previous build's garbage out of its CPU time.
func setupMedian[S any](reps int, build func() (S, func(), error)) (S, setupTimes, error) {
	var (
		sys        S
		cpus, wall []time.Duration
	)
	for r := 0; r < reps; r++ {
		runtime.GC()
		t0, c0 := time.Now(), cpuNow()
		s, teardown, err := build()
		if err != nil {
			return sys, setupTimes{}, fmt.Errorf("setup: %w", err)
		}
		cpus = append(cpus, cpuNow()-c0)
		wall = append(wall, time.Since(t0))
		if r < reps-1 {
			teardown()
			continue
		}
		sys = s
	}
	return sys, setupTimes{cpu: median(cpus), wall: median(wall)}, nil
}

// verifyBytes compares one output with its reference; flip corrupts the
// output first (the self-test path).
func verifyBytes(got, want []byte, flip bool) bool {
	if flip && len(got) > 0 {
		got = append([]byte(nil), got...)
		got[len(got)/2] ^= 0x01
	}
	return bytes.Equal(got, want)
}

// timedSegmenter times every Segment call of the segmenter it wraps.
// It deliberately does not implement segment.IntoSegmenter, exactly
// like the segmenter it wraps, so the reconstructor takes the same path.
type timedSegmenter struct {
	inner segment.Segmenter

	mu    sync.Mutex
	times []time.Duration
}

func (t *timedSegmenter) Segment(frame *imagex.Image, oracle *imagex.Mask) *imagex.Mask {
	t0 := time.Now()
	m := t.inner.Segment(frame, oracle)
	d := time.Since(t0)
	t.mu.Lock()
	t.times = append(t.times, d)
	t.mu.Unlock()
	return m
}

// segTimes collects the Segment timings of every wrapper.
func segTimes(segs []*timedSegmenter) []time.Duration {
	var all []time.Duration
	for _, s := range segs {
		s.mu.Lock()
		all = append(all, s.times...)
		s.mu.Unlock()
	}
	return all
}

// segmentAllocs is the mean heap allocations of one Segment call over
// frames, measured single-threaded.
func segmentAllocs(seg segment.Segmenter, frames []*imagex.Image, oracles []*imagex.Mask) float64 {
	m0 := mallocs()
	for i, f := range frames {
		seg.Segment(f, oracles[i])
	}
	return float64(mallocs()-m0) / float64(len(frames))
}

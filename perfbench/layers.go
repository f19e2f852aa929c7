package main

import (
	"time"

	"github.com/bgbuster/bgbuster/internal/core"
	"github.com/bgbuster/bgbuster/internal/imagex"
)

// Standalone layer probes: calls into one layer on the benchmark's own
// goroutine, with nothing else running, over the same frames and
// options a workload uses. They give the single-threaded baseline and
// the allocation counts that cannot be taken from inside a loaded run.

const (
	probeWarm   = identifyFrames + 10 // frames fed before timing (identification pinned)
	probeFrames = 300
	probeReps   = 15 // checkpoint encode/resume repetitions
)

// feedProbe is what streamProbe measured.
type feedProbe struct {
	p50, mean      time.Duration
	allocs         float64
	encode, resume time.Duration
	bytes          int
}

func (p feedProbe) set(o *outcome) {
	o.set("core.feed_us_p50", us(p.p50))
	o.set("core.feed_allocs_per_frame", p.allocs)
	o.set("checkpoint.encode_us", us(p.encode))
	o.set("checkpoint.bytes", float64(p.bytes))
	o.set("checkpoint.resume_us", us(p.resume))
}

// streamProbe times StreamReconstructor.Feed frame by frame, then the
// checkpoint encode and resume of the state it built.
func streamProbe(w, h int, opts core.Options, frame func(n int) (*imagex.Image, *imagex.Mask)) (feedProbe, error) {
	var p feedProbe
	st, err := core.NewStream(w, h, opts)
	if err != nil {
		return p, err
	}
	for n := 0; n < probeWarm; n++ {
		if err := st.Feed(frame(n)); err != nil {
			return p, err
		}
	}
	times := make([]time.Duration, probeFrames)
	m0 := mallocs()
	for i := range times {
		f, o := frame(probeWarm + i)
		t0 := time.Now()
		err := st.Feed(f, o)
		times[i] = time.Since(t0)
		if err != nil {
			return p, err
		}
	}
	p.allocs = float64(mallocs()-m0) / probeFrames
	p.p50, p.mean = median(times), total(times)/probeFrames

	enc := make([]time.Duration, probeReps)
	res := make([]time.Duration, probeReps)
	for i := range enc {
		t0 := time.Now()
		data, err := st.Checkpoint()
		enc[i] = time.Since(t0)
		if err != nil {
			return p, err
		}
		p.bytes = len(data)
		t0 = time.Now()
		_, err = core.ResumeStream(data, opts)
		res[i] = time.Since(t0)
		if err != nil {
			return p, err
		}
	}
	p.encode, p.resume = median(enc), median(res)
	return p, nil
}

// part is one layer's attributed share of an end-to-end figure.
type part struct {
	name string
	d    time.Duration
}

// breakdown prints how parts add up to whole and returns the residual,
// the share no layer timed from outside accounts for, in percent.
func breakdown(o *outcome, label string, whole time.Duration, parts []part) float64 {
	o.notef("breakdown of %s = %.4f ms:", label, ms(whole))
	rest := whole
	for _, p := range parts {
		o.notef("  %-52s %9.4f ms  %6.1f%%", p.name, ms(p.d), 100*float64(p.d)/float64(whole))
		rest -= p.d
	}
	pct := 100 * float64(rest) / float64(whole)
	o.notef("  %-52s %9.4f ms  %6.1f%%", "residual (not attributable from outside)", ms(rest), pct)
	return pct
}

// overhead prints the traced-versus-untraced difference and returns it
// for CPU per frame, in percent.
func overhead(o *outcome, cpuU, cpuT, lagU, lagT time.Duration) float64 {
	pct := 100 * float64(cpuT-cpuU) / float64(cpuU)
	o.notef("tracing overhead: cpu/frame %.4f -> %.4f ms (%+.1f%%), lag p50 %.3f -> %.3f ms (%+.1f%%)",
		ms(cpuU), ms(cpuT), pct, ms(lagU), ms(lagT), 100*float64(lagT-lagU)/float64(lagU))
	return pct
}

// setZero records 0 for layers the workload does not exercise.
func setZero(o *outcome, names ...string) {
	for _, n := range names {
		o.set(n, 0)
	}
}

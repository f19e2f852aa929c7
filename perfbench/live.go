package main

import (
	"errors"
	"fmt"
	"time"

	"github.com/bgbuster/bgbuster"
	"github.com/bgbuster/bgbuster/internal/core"
	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/session"
)

// live-calls: 12 concurrent 1:1 calls, each a 320x240 recording played
// at 30 fps with staggered phases, through one session.Manager with
// drop-oldest queues and 1 s checkpoints to a MemStore.
const (
	liveW, liveH   = 320, 240
	liveCalls      = 12
	liveRecFrames  = 150
	liveActive     = 3 // active-speaker recordings; the rest are passive
	livePassive    = 3
	livePairs      = liveActive + livePassive // distinct (recording, segmenter seed) pairs; calls cycle over them
	identifyFrames = core.DefaultIdentifyAfter
	drainTimeout   = 30 * time.Second
	// kneeSeconds is the measured time of each saturation-ladder step.
	kneeSeconds = 2
)

// kneeLadder is the fixed concurrency ladder of the informational
// saturation knee (traced runs only).
var kneeLadder = []int{12, 24, 36, 48, 60, 72}

type liveInputs struct {
	seed int64
	recs []*recording
	ids  []string
}

func newLiveInputs(seed int64) (*liveInputs, error) {
	in := &liveInputs{seed: seed, recs: make([]*recording, livePairs)}
	if err := e2Recordings(seed, liveW, liveH, liveRecFrames, liveActive, livePassive, collect(in.recs)); err != nil {
		return nil, err
	}
	for i := 0; i < kneeLadder[len(kneeLadder)-1]; i++ {
		in.ids = append(in.ids, fmt.Sprintf("call-%02d", i))
	}
	return in, nil
}

// frame is step n of pair p, which plays recording p.
func (in *liveInputs) frame(p, n int) (*imagex.Image, *imagex.Mask) {
	r := in.recs[p]
	i := pingPong(n, len(r.frames))
	return r.frames[i], r.oracles[i]
}

// options are the production streaming options of pair p.
func (in *liveInputs) options(p int) core.Options {
	return bgbuster.StreamAttackOptions(liveW, liveH, false, in.seed*1000+int64(p))
}

type liveSystem struct {
	mgr      *session.Manager
	store    *session.MemStore
	sessions []*session.Session
	segs     []*timedSegmenter
}

// build opens calls sessions and feeds each its identification window;
// the system is ready when every session has pinned its virtual
// background.
func (in *liveInputs) build(calls int, traced bool) (*liveSystem, func(), error) {
	store := session.NewMemStore()
	mgr := session.NewManager(session.Config{Checkpoints: store, CheckpointInterval: time.Second})
	teardown := func() { _ = mgr.Close() }
	sys := &liveSystem{mgr: mgr, store: store}
	fail := func(err error) (*liveSystem, func(), error) {
		teardown()
		return nil, nil, err
	}
	for i := 0; i < calls; i++ {
		opts := in.options(i % livePairs)
		if traced {
			ts := &timedSegmenter{inner: opts.Segmenter}
			opts.Segmenter = ts
			sys.segs = append(sys.segs, ts)
		}
		s, err := mgr.Open(in.ids[i], liveW, liveH, opts)
		if err != nil {
			return fail(err)
		}
		sys.sessions = append(sys.sessions, s)
	}
	for n := 0; n < identifyFrames; n++ {
		for i, s := range sys.sessions {
			f, o := in.frame(i%livePairs, n)
			if err := s.Feed(f, o); err != nil {
				return fail(err)
			}
		}
	}
	for _, s := range sys.sessions {
		if err := s.Drain(drainTimeout); err != nil {
			return fail(err)
		}
		if !s.Stats().Identified {
			return fail(fmt.Errorf("session %s not identified after %d frames", s.ID(), identifyFrames))
		}
	}
	return sys, teardown, nil
}

// liveRun is one measured open-loop run.
type liveRun struct {
	sys            *liveSystem
	calls, steps   int
	setup          setupTimes
	lag, late, enq []time.Duration
	win            windowStats
	heapMB         float64
	processed      int64 // frames processed inside the window
	lost           int64 // dropped, rejected or failed to feed
	snap           session.ManagerSnapshot
}

func (in *liveInputs) measure(calls, seconds, reps int, traced bool) (*liveRun, error) {
	base := liveHeap()
	r := &liveRun{calls: calls, steps: seconds * fps}
	var err error
	r.sys, r.setup, err = setupMedian(reps, func() (*liveSystem, func(), error) { return in.build(calls, traced) })
	if err != nil {
		return nil, err
	}

	events := r.steps * calls
	start := time.Now().Add(10 * time.Millisecond)
	dueAt := func(e int) time.Time {
		return start.Add(time.Duration(e/calls)*period + time.Duration(e%calls)*period/time.Duration(calls))
	}
	var feedErrs, drainErrs int64
	var end time.Time
	r.lag = make([]time.Duration, 0, events)
	w := startWindow(start)
	r.late = openLoop(events, dueAt, func(e int) {
		i := e % calls
		f, o := in.frame(i%livePairs, identifyFrames+e/calls)
		var t0 time.Time
		if traced {
			t0 = time.Now()
		}
		if err := r.sys.mgr.Feed(in.ids[i], f, o); err != nil {
			feedErrs++
		}
		if traced {
			r.enq = append(r.enq, time.Since(t0))
		}
	}, func(e int, due time.Time) {
		if err := r.sys.sessions[e%calls].Drain(drainTimeout); err != nil {
			drainErrs++
		}
		end = time.Now()
		r.lag = append(r.lag, end.Sub(due))
	})
	r.win = w.stop(end)
	r.heapMB = heapMBAbove(base) / float64(calls)
	r.snap = r.sys.mgr.Stats()
	for _, st := range r.snap.Sessions {
		r.processed += int64(st.FramesProcessed) - identifyFrames
		r.lost += int64(st.FramesDropped + st.FramesRejected)
	}
	r.lost += feedErrs + drainErrs
	return r, nil
}

// close finalizes every session (writing its final checkpoint) and
// stops the manager.
func (r *liveRun) close() error {
	var errs []error
	for _, s := range r.sys.sessions {
		errs = append(errs, s.Close())
	}
	errs = append(errs, r.sys.mgr.Close())
	return errors.Join(errs...)
}

// verify closes the run and checks each session's final .bbck bytes
// against a standalone stream fed the same frames. A session that lost
// frames cannot match and is counted failed instead. It returns whether
// every checked session matched and how many frames failed.
func (in *liveInputs) verify(r *liveRun, flip bool) (bool, int64, error) {
	if err := r.close(); err != nil {
		return false, 0, err
	}
	pairs := min(r.calls, livePairs)
	refs := make([][]byte, pairs)
	err := parallel(pairs, func(p int) error {
		st, err := core.NewStream(liveW, liveH, in.options(p))
		if err != nil {
			return err
		}
		for n := 0; n < identifyFrames+r.steps; n++ {
			if err := st.Feed(in.frame(p, n)); err != nil {
				return err
			}
		}
		if err := st.Finalize(); err != nil {
			return err
		}
		refs[p], err = st.Checkpoint()
		return err
	})
	if err != nil {
		return false, 0, fmt.Errorf("reference: %w", err)
	}
	correct, failed := true, r.lost
	for i, st := range r.snap.Sessions {
		if st.FramesDropped+st.FramesRejected > 0 {
			continue // already counted in lost
		}
		got, err := r.sys.store.Load(st.ID)
		if err != nil || !verifyBytes(got, refs[i%livePairs], flip && i == 0) {
			correct = false
			failed += int64(r.steps)
		}
	}
	return correct, failed, nil
}

func (r *liveRun) cpuPerFrame() time.Duration {
	return r.win.cpu / time.Duration(max(r.processed, 1))
}

func (r *liveRun) coveragePct() float64 {
	var sum float64
	for _, st := range r.snap.Sessions {
		sum += st.CoveragePct
	}
	return sum / float64(max(len(r.snap.Sessions), 1))
}

func runLiveCalls(cfg runConfig) (*outcome, error) {
	in, err := newLiveInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	out := &outcome{values: map[string]float64{}, correct: true}
	pass := func(traced bool) (*liveRun, error) {
		r, err := in.measure(liveCalls, cfg.seconds, setupReps, traced)
		if err != nil {
			return nil, err
		}
		ok, failed, err := in.verify(r, cfg.flip)
		if err != nil {
			return nil, err
		}
		out.correct = out.correct && ok
		out.attempted += int64(r.steps * r.calls)
		out.failed += failed
		out.notef("live-calls traced=%v: %d calls x %d frames at %d fps, lag p50 %.3f ms p99 %.3f ms (n=%d), generator late p99 %.3f ms, cpu %.4f ms/frame, rbrr %.2f%%, lost %d, correct %v",
			traced, r.calls, r.steps, fps, ms(median(r.lag)), ms(quantile(r.lag, 0.99)), len(r.lag),
			ms(quantile(r.late, 0.99)), ms(r.cpuPerFrame()), r.coveragePct(), r.lost, ok)
		return r, nil
	}
	u, err := pass(false)
	if err != nil {
		return nil, err
	}
	out.set("setup_s", u.setup.cpu.Seconds())
	out.set("cpu_ms_per_frame", ms(u.cpuPerFrame()))
	out.set("heap_mb_per_session", u.heapMB)
	out.notef("not gated: setup_wall_s %.4f s, lag_p50_ms %.3f ms, lag_p99_ms %.3f ms (n=%d), frames_per_s %.2f 1/s, loadgen.late_p99_ms %.3f ms, fail_frac %.4f, rbrr_pct %.2f %%",
		u.setup.wall.Seconds(), ms(median(u.lag)), ms(quantile(u.lag, 0.99)), len(u.lag),
		float64(u.processed)/u.win.wall.Seconds(), ms(quantile(u.late, 0.99)),
		float64(out.failed)/float64(out.attempted), u.coveragePct())
	if !cfg.trace {
		return out, nil
	}

	t, err := pass(true)
	if err != nil {
		return nil, err
	}
	feed, err := streamProbe(liveW, liveH, in.options(0), func(n int) (*imagex.Image, *imagex.Mask) { return in.frame(0, n) })
	if err != nil {
		return nil, err
	}
	rec := in.recs[0]
	feed.set(out)
	out.set("segment.segment_us_p50", us(median(segTimes(t.sys.segs))))
	out.set("segment.allocs_per_frame", segmentAllocs(in.options(0).Segmenter, rec.frames[:100], rec.oracles[:100]))
	out.set("session.enqueue_us_p50", us(median(t.enq)))
	out.set("session.wait_us_p50", us(median(t.lag)-feed.p50))
	ckpts := sumSnap(t.snap, func(s session.Snapshot) uint64 { return s.Checkpoints })
	out.set("session.dropped", float64(sumSnap(t.snap, func(s session.Snapshot) uint64 { return s.FramesDropped })))
	out.set("session.rejected", float64(sumSnap(t.snap, func(s session.Snapshot) uint64 { return s.FramesRejected })))
	out.set("session.checkpoints", float64(ckpts))
	out.set("session.checkpoint_errors", float64(sumSnap(t.snap, func(s session.Snapshot) uint64 { return s.CheckpointErrors })))
	t.win.setRuntime(out)
	out.set("loadgen.late_p99_ms", ms(quantile(t.late, 0.99)))
	setZero(out, "core.reconstruct_ms_per_call", "core.reconstruct_allocs_per_frame",
		"gallery.demux_us_p50", "gallery.handoff_share",
		"fleet.feed_rpc_us_p50", "fleet.wire_encode_us", "fleet.wire_decode_us", "fleet.wire_bytes_per_frame",
		"fleet.drain_rpc_us_p50", "fleet.replicate_ms",
		"vidstream.decode_ms_per_call", "attacks.location_rank_ms_per_call")

	// Breakdown of the untraced cpu_ms_per_frame into what the layers
	// cost when timed from outside.
	frames := time.Duration(max(t.processed, 1))
	parts := []part{
		{"core feed (standalone mean, incl. segment)", feed.mean},
		{"session enqueue (Manager.Feed)", total(t.enq) / frames},
		{"checkpoint encode (standalone x checkpoints/frame)", feed.encode * time.Duration(ckpts) / frames},
	}
	out.set("trace.residual_pct", breakdown(out, "live-calls cpu_ms_per_frame", u.cpuPerFrame(), parts))
	out.set("trace.overhead_pct", overhead(out, u.cpuPerFrame(), t.cpuPerFrame(), median(u.lag), median(t.lag)))

	knee, err := in.knee(out)
	if err != nil {
		return nil, err
	}
	out.set("loadgen.knee_calls", float64(knee))
	return out, nil
}

// knee steps live-calls concurrency up the fixed ladder and returns the
// highest step that lost no frame with lag p50 under one frame period.
// It is informational: a step flip does not repeat within any bound.
func (in *liveInputs) knee(out *outcome) (int, error) {
	knee := 0
	for _, calls := range kneeLadder {
		r, err := in.measure(calls, kneeSeconds, 1, false)
		if err != nil {
			return 0, fmt.Errorf("knee %d calls: %w", calls, err)
		}
		if err := r.close(); err != nil {
			return 0, fmt.Errorf("knee %d calls: %w", calls, err)
		}
		p50 := median(r.lag)
		out.notef("knee step %d calls: lag p50 %.3f ms, lost %d of %d, cpu %.2f cores",
			calls, ms(p50), r.lost, r.steps*calls, r.win.cpu.Seconds()/r.win.wall.Seconds())
		if r.lost > 0 || p50 >= period {
			break
		}
		knee = calls
	}
	return knee, nil
}

func sumSnap(m session.ManagerSnapshot, f func(session.Snapshot) uint64) uint64 {
	var n uint64
	for _, s := range m.Sessions {
		n += f(s)
	}
	return n
}

package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/bgbuster/bgbuster/internal/attacks/location"
	"github.com/bgbuster/bgbuster/internal/compositor"
	"github.com/bgbuster/bgbuster/internal/core"
	"github.com/bgbuster/bgbuster/internal/dataset"
	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/segment"
	"github.com/bgbuster/bgbuster/internal/vidstream"
)

// replay: closed loop over pre-encoded 150-frame 320x240 .bbv
// recordings, each decoded, batch reconstructed with Workers = nproc and
// ranked against a 20-entry location dictionary.
const (
	replayActive   = 4
	replayPassive  = 4
	replayDictSize = 20
)

type replayRecording struct {
	bbv     []byte
	oracles []*imagex.Mask
	call    *dataset.Call
	segSeed int64
	// want is the Workers=1 reference output (coverage words, then
	// recovered pixels).
	want []byte
}

type replayInputs struct {
	seed int64
	recs []*replayRecording
	dict location.Dictionary
}

func newReplayInputs(seed int64) (*replayInputs, error) {
	in := &replayInputs{seed: seed, recs: make([]*replayRecording, replayActive+replayPassive)}
	known := compositor.BuiltinImages(liveW, liveH)
	// Each recording is encoded and given its Workers=1 reference as soon
	// as it is made, so only the .bbv bytes stay in memory.
	err := e2Recordings(seed, liveW, liveH, liveRecFrames, replayActive, replayPassive, func(i int, r *recording) error {
		v := vidstream.New(fps)
		for _, f := range r.frames {
			if err := v.Append(f); err != nil {
				return err
			}
		}
		var buf bytes.Buffer
		buf.Grow(len(r.frames)*liveW*liveH*3 + 64) // exact-size, so no doubling slack stays live
		if err := vidstream.Encode(&buf, v); err != nil {
			return err
		}
		rr := &replayRecording{bbv: buf.Bytes(), oracles: r.oracles, call: r.call, segSeed: seed*1000 + int64(i)}
		rec, err := core.Reconstruct(v, r.oracles, replayOptions(known, rr, 1, nil))
		if err != nil {
			return err
		}
		rr.want = replayOutput(rec)
		in.recs[i] = rr
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range in.recs {
		in.dict = append(in.dict, location.Entry{Name: r.call.LocationName(), Background: r.call.SceneFor().Base})
	}
	cfg := dataset.DefaultConfig()
	cfg.W, cfg.H, cfg.Seed = liveW, liveH, seed
	for i, sc := range dataset.FillerScenes(cfg, replayDictSize-len(in.dict)) {
		in.dict = append(in.dict, location.Entry{Name: fmt.Sprintf("filler-%d", i), Background: sc.Base})
	}
	return in, nil
}

// replayOptions are the batch attack options for one recording.
func replayOptions(known map[string]*imagex.Image, r *replayRecording, workers int, wrap func(segment.Segmenter) segment.Segmenter) core.Options {
	opts := core.DefaultOptions()
	opts.KnownImages = known
	opts.Segmenter = segment.NewOfflineSegmenter(rand.New(rand.NewSource(r.segSeed)))
	if wrap != nil {
		opts.Segmenter = wrap(opts.Segmenter)
	}
	opts.Workers = workers
	return opts
}

// replayOutput serializes what a reconstruction recovered.
func replayOutput(rec *core.Reconstruction) []byte {
	out := rec.Coverage.AppendWords(nil)
	for _, p := range rec.Recovered.Pix {
		out = append(out, p.R, p.G, p.B)
	}
	return out
}

// replayAttacker is the attacker's state: its virtual-image dictionary
// and location dictionary, built during set-up.
type replayAttacker struct {
	known map[string]*imagex.Image
	dict  location.Dictionary
	seg   *timedSegmenter // traced only; shared by every pass (serial segmentation)
}

// pipelineTimes are one pipeline pass's layer timings.
type pipelineTimes struct {
	decode, reconstruct, rank time.Duration
	allocs                    uint64 // heap allocations inside Reconstruct (traced only)
}

// pipeline takes one recording from .bbv bytes to a location answer.
func (a *replayAttacker) pipeline(r *replayRecording) (*vidstream.Video, *core.Reconstruction, []location.Match, pipelineTimes, error) {
	var pt pipelineTimes
	traced := a.seg != nil
	var wrap func(segment.Segmenter) segment.Segmenter
	if traced {
		wrap = func(s segment.Segmenter) segment.Segmenter { a.seg.inner = s; return a.seg }
	}
	t0 := time.Now()
	v, err := vidstream.Decode(bytes.NewReader(r.bbv))
	pt.decode = time.Since(t0)
	if err != nil {
		return nil, nil, nil, pt, err
	}
	var m0 uint64
	if traced {
		m0 = mallocs()
	}
	t0 = time.Now()
	rec, err := core.Reconstruct(v, r.oracles, replayOptions(a.known, r, runtime.NumCPU(), wrap))
	pt.reconstruct = time.Since(t0)
	if traced {
		pt.allocs = mallocs() - m0
	}
	if err != nil {
		return nil, nil, nil, pt, err
	}
	t0 = time.Now()
	matches, err := location.Rank(rec, a.dict, location.DefaultOptions())
	pt.rank = time.Since(t0)
	return v, rec, matches, pt, err
}

// replayRun is one measured closed-loop run.
type replayRun struct {
	setup      setupTimes
	lag        []time.Duration // per recording, bytes to location answer
	times      []pipelineTimes
	segs       []time.Duration
	win        windowStats
	heapMB     float64
	attempted  int64 // frames of every recording started
	frames     int64 // frames of recordings that reached a location answer
	failed     int64 // frames of recordings that errored or mismatched
	mismatched int
	top1       int
	rbrr       float64 // summed over recordings
}

// measure sets up the attacker and replays the recordings back to back
// in whole passes over the set until seconds have passed, so every run
// weighs each recording alike, checking each output against its
// reference.
func (in *replayInputs) measure(seconds int, traced, flip bool) (*replayRun, error) {
	base := liveHeap()
	r := &replayRun{}
	a, setup, err := setupMedian(setupReps, func() (*replayAttacker, func(), error) {
		a := &replayAttacker{known: compositor.BuiltinImages(liveW, liveH), dict: in.dict}
		if traced {
			a.seg = &timedSegmenter{}
		}
		_, _, _, _, err := a.pipeline(in.recs[0])
		return a, func() {}, err
	})
	if err != nil {
		return nil, err
	}
	r.setup = setup
	if a.seg != nil {
		a.seg.times = nil // drop the set-up passes
	}

	var held []any // the last pass's video and reconstruction, live for the heap figure
	start := time.Now()
	w := startWindow(start)
	for i := 0; i%len(in.recs) != 0 || time.Since(start) < time.Duration(seconds)*time.Second; i++ {
		rr := in.recs[i%len(in.recs)]
		r.attempted += int64(len(rr.oracles))
		t0 := time.Now()
		v, rec, matches, pt, err := a.pipeline(rr)
		if err != nil {
			r.failed += int64(len(rr.oracles))
			continue
		}
		r.lag = append(r.lag, time.Since(t0))
		r.times = append(r.times, pt)
		r.frames += int64(v.Len())
		if !verifyBytes(replayOutput(rec), rr.want, flip && i == 0) {
			r.mismatched++
			r.failed += int64(v.Len())
		}
		if location.TopK(matches, rr.call.LocationName(), 1) {
			r.top1++
		}
		r.rbrr += rec.RBRR()
		held = []any{v, rec}
	}
	r.win = w.stop(time.Now())
	r.heapMB = heapMBAbove(base)
	runtime.KeepAlive(held)
	if a.seg != nil {
		r.segs = segTimes([]*timedSegmenter{a.seg})
	}
	return r, nil
}

func (r *replayRun) cpuPerFrame() time.Duration {
	return r.win.cpu / time.Duration(max(r.frames, 1))
}

func (r *replayRun) medianOf(f func(pipelineTimes) time.Duration) time.Duration {
	ds := make([]time.Duration, len(r.times))
	for i, pt := range r.times {
		ds[i] = f(pt)
	}
	return median(ds)
}

func runReplay(cfg runConfig) (*outcome, error) {
	in, err := newReplayInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	out := &outcome{values: map[string]float64{}, correct: true}
	pass := func(traced bool) (*replayRun, error) {
		r, err := in.measure(cfg.seconds, traced, cfg.flip)
		if err != nil {
			return nil, err
		}
		out.correct = out.correct && r.mismatched == 0
		out.attempted += r.attempted
		out.failed += r.failed
		n := max(len(r.lag), 1)
		out.notef("replay traced=%v: %d recordings (%d frames) in %.2f s, lag p50 %.2f ms, cpu %.4f ms/frame, rbrr %.2f%%, top1 %.1f%%, mismatched %d",
			traced, len(r.lag), r.frames, r.win.wall.Seconds(), ms(median(r.lag)), ms(r.cpuPerFrame()),
			r.rbrr/float64(n), 100*float64(r.top1)/float64(n), r.mismatched)
		return r, nil
	}
	u, err := pass(false)
	if err != nil {
		return nil, err
	}
	out.set("setup_s", u.setup.cpu.Seconds())
	out.set("cpu_ms_per_frame", ms(u.cpuPerFrame()))
	out.set("heap_mb_per_session", u.heapMB)
	n := max(len(u.lag), 1)
	out.notef("not gated: setup_wall_s %.4f s, lag_p50_ms %.2f ms (per recording), replay_frames_per_s %.2f 1/s, fail_frac %.4f, rbrr_pct %.2f %%, top1_pct %.1f %% (n=%d)",
		u.setup.wall.Seconds(), ms(median(u.lag)), float64(u.frames)/u.win.wall.Seconds(),
		float64(out.failed)/float64(out.attempted), u.rbrr/float64(n), 100*float64(u.top1)/float64(n), n)
	if !cfg.trace {
		return out, nil
	}

	t, err := pass(true)
	if err != nil {
		return nil, err
	}
	rr := in.recs[0]
	v, err := vidstream.Decode(bytes.NewReader(rr.bbv))
	if err != nil {
		return nil, err
	}
	allocs := make([]uint64, len(t.times))
	for i, pt := range t.times {
		allocs[i] = pt.allocs
	}
	out.set("core.reconstruct_ms_per_call", ms(t.medianOf(func(pt pipelineTimes) time.Duration { return pt.reconstruct })))
	out.set("core.reconstruct_allocs_per_frame", float64(median(allocs))/liveRecFrames)
	out.set("segment.segment_us_p50", us(median(t.segs)))
	out.set("segment.allocs_per_frame", segmentAllocs(replayOptions(nil, rr, 1, nil).Segmenter, v.Frames[:100], rr.oracles[:100]))
	out.set("vidstream.decode_ms_per_call", ms(t.medianOf(func(pt pipelineTimes) time.Duration { return pt.decode })))
	out.set("attacks.location_rank_ms_per_call", ms(t.medianOf(func(pt pipelineTimes) time.Duration { return pt.rank })))
	t.win.setRuntime(out)
	// The closed loop has no generator schedule to run late against.
	setZero(out, "loadgen.late_p99_ms", "loadgen.knee_calls",
		"core.feed_us_p50", "core.feed_allocs_per_frame",
		"checkpoint.encode_us", "checkpoint.bytes", "checkpoint.resume_us",
		"session.enqueue_us_p50", "session.wait_us_p50", "session.dropped", "session.rejected",
		"session.checkpoints", "session.checkpoint_errors",
		"gallery.demux_us_p50", "gallery.handoff_share",
		"fleet.feed_rpc_us_p50", "fleet.wire_encode_us", "fleet.wire_decode_us", "fleet.wire_bytes_per_frame",
		"fleet.drain_rpc_us_p50", "fleet.replicate_ms")

	calls := time.Duration(max(len(t.times), 1))
	var dec, recon, rank time.Duration
	for _, pt := range t.times {
		dec, recon, rank = dec+pt.decode, recon+pt.reconstruct, rank+pt.rank
	}
	parts := []part{
		{"vidstream decode", dec / calls},
		{"core reconstruct (Workers = nproc)", recon / calls},
		{"attacks location rank", rank / calls},
	}
	out.set("trace.residual_pct", breakdown(out, "replay mean wall ms per recording (traced)", total(t.lag)/calls, parts))
	out.set("trace.overhead_pct", overhead(out, u.cpuPerFrame(), t.cpuPerFrame(), median(u.lag), median(t.lag)))
	return out, nil
}

package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sync"
	"time"

	"github.com/bgbuster/bgbuster"
	"github.com/bgbuster/bgbuster/internal/core"
	"github.com/bgbuster/bgbuster/internal/fleet"
	"github.com/bgbuster/bgbuster/internal/gallery"
	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/session"
	"github.com/bgbuster/bgbuster/internal/vidstream"
)

// meeting: one 3x3 gallery composite of 160x120 tiles at 30 fps,
// demuxed by fleet.NewGalleryFanout and routed by a Coordinator onto two
// loopback shards, with Replicate into a 3-store W=2 QuorumStore every
// second. Tiles carry empty oracles and an unknown virtual background.
const (
	tileW, tileH   = 160, 120
	meetActive     = 3
	meetPassive    = 6
	meetTiles      = meetActive + meetPassive
	meetFrames     = 90 // composed meeting length; runs ping-pong over it
	meetShards     = 2
	meetReplicas   = 3
	meetQuorum     = 2
	replicateEvery = time.Second
	wireReps       = 100
)

type meetingInputs struct {
	seed  int64
	parts []gallery.Participant
	res   *gallery.Result
	empty *imagex.Mask
}

func newMeetingInputs(seed int64) (*meetingInputs, error) {
	recs := make([]*recording, meetTiles)
	if err := e2Recordings(seed, tileW, tileH, meetFrames, meetActive, meetPassive, collect(recs)); err != nil {
		return nil, err
	}
	var err error
	in := &meetingInputs{seed: seed, empty: imagex.NewMask(tileW, tileH)}
	for _, r := range recs {
		v := vidstream.New(fps)
		for _, f := range r.frames {
			if err := v.Append(f); err != nil {
				return nil, err
			}
		}
		in.parts = append(in.parts, gallery.Participant{Frames: v})
	}
	in.res, err = gallery.Compose(in.parts, gallery.Spec{Seed: seed})
	if err != nil {
		return nil, err
	}
	if n := len(in.res.Truth[0].Tiles); n != meetTiles {
		return nil, fmt.Errorf("inputs: composite shows %d tiles, want %d", n, meetTiles)
	}
	return in, nil
}

// composite is the meeting frame fed at step n.
func (in *meetingInputs) composite(n int) *imagex.Image {
	return in.res.Video.Frames[pingPong(n, meetFrames)]
}

// shown is participant p's frame on the composite of step n: what a
// direct feed of that participant sees.
func (in *meetingInputs) shown(p, n int) *imagex.Image {
	c := pingPong(n, meetFrames)
	for _, tt := range in.res.Truth[c].Tiles {
		if tt.Participant == p {
			return in.parts[p].Frames.Frames[tt.Frame]
		}
	}
	return nil
}

// tileSeed is the segmenter seed of tile session id.
func (in *meetingInputs) tileSeed(id string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", in.seed, id)
	return int64(h.Sum64() >> 1)
}

// options are the production streaming options of tile session id.
func (in *meetingInputs) options(id string) core.Options {
	return bgbuster.StreamAttackOptions(tileW, tileH, true, in.tileSeed(id))
}

// timedAPI times the sink's frame deliveries into the coordinator; the
// generator goroutine alone uses it. Opens, resumes and detaches happen
// only during set-up (a join or leave in the measured window is a
// demux fault), so they pass through untimed.
type timedAPI struct {
	fleet.SessionAPI
	inSink time.Duration // time inside sink feeds during the current Fanout.Feed
	feeds  []time.Duration
}

func (t *timedAPI) Feed(id string, f core.Frame) error {
	t0 := time.Now()
	err := t.SessionAPI.Feed(id, f)
	d := time.Since(t0)
	t.inSink += d
	t.feeds = append(t.feeds, d)
	return err
}

type shardProc struct {
	ln   net.Listener
	mgr  *session.Manager
	done chan struct{}
}

type meetingSystem struct {
	shards []*shardProc
	coord  *fleet.Coordinator
	timed  *timedAPI // nil when untraced
	fanout *gallery.Fanout
	ids    []string // tile session ids, in lane order
	// partOf is the participant each lane shows.
	partOf []int

	segMu sync.Mutex
	segs  []*timedSegmenter
}

func (s *meetingSystem) stop() error {
	var errs []error
	if s.coord != nil {
		errs = append(errs, s.coord.Close())
	}
	for _, sp := range s.shards {
		_ = sp.ln.Close() // Serve returns once its listener is closed
		<-sp.done
		errs = append(errs, sp.mgr.Close())
	}
	return errors.Join(errs...)
}

// build starts the shards and the coordinator and feeds the first
// identifyFrames composites; the system is ready when the demuxer has
// committed all nine tiles and every tile session has drained them.
func (in *meetingInputs) build(traced bool) (*meetingSystem, func(), error) {
	sys := &meetingSystem{}
	teardown := func() { _ = sys.stop() }
	fail := func(err error) (*meetingSystem, func(), error) {
		teardown()
		return nil, nil, err
	}
	optionsFor := func(spec fleet.OpenSpec) core.Options {
		opts := bgbuster.StreamAttackOptions(spec.W, spec.H, spec.UnknownVB, spec.Seed)
		if traced {
			ts := &timedSegmenter{inner: opts.Segmenter}
			opts.Segmenter = ts
			sys.segMu.Lock()
			sys.segs = append(sys.segs, ts)
			sys.segMu.Unlock()
		}
		return opts
	}
	var addrs []string
	for i := 0; i < meetShards; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		mgr := session.NewManager(session.Config{})
		sh, err := fleet.NewShard(fleet.ShardConfig{Manager: mgr, OptionsFor: optionsFor})
		if err != nil {
			_ = ln.Close()
			_ = mgr.Close()
			return fail(err)
		}
		sp := &shardProc{ln: ln, mgr: mgr, done: make(chan struct{})}
		go func() {
			defer close(sp.done)
			_ = sh.Serve(ln)
		}()
		sys.shards = append(sys.shards, sp)
		addrs = append(addrs, ln.Addr().String())
	}
	stores := make([]session.CheckpointStore, meetReplicas)
	for i := range stores {
		stores[i] = session.NewMemStore()
	}
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
		Shards: addrs, Stores: stores, ReplicaFactor: meetReplicas, WriteQuorum: meetQuorum,
	})
	if err != nil {
		return fail(err)
	}
	sys.coord = coord
	var api fleet.SessionAPI = coord
	if traced {
		sys.timed = &timedAPI{SessionAPI: coord}
		api = sys.timed
	}
	fanout, sink := fleet.NewGalleryFanout(gallery.Config{}, api)
	sink.SpecFor = func(id string, w, h int) fleet.OpenSpec {
		return fleet.OpenSpec{ID: id, W: w, H: h, UnknownVB: true, Seed: in.tileSeed(id)}
	}
	sys.fanout = fanout
	slotOf := map[int]int{}
	for n := 0; n < identifyFrames; n++ {
		up, err := fanout.Feed(in.composite(n))
		if err != nil {
			return fail(err)
		}
		for _, lf := range up.Frames {
			if _, ok := slotOf[lf.Lane]; !ok {
				slotOf[lf.Lane] = lf.Slot
			}
		}
	}
	lanes := fanout.Demux().Lanes()
	if len(lanes) != meetTiles {
		return fail(fmt.Errorf("demuxer found %d lanes, want %d", len(lanes), meetTiles))
	}
	for _, lane := range lanes {
		id := fanout.TileID(lane)
		sys.ids = append(sys.ids, id)
		sys.partOf = append(sys.partOf, in.res.Truth[0].Tiles[slotOf[lane]].Participant)
		if err := coord.Drain(id); err != nil {
			return fail(err)
		}
	}
	return sys, teardown, nil
}

// meetingRun is one measured open-loop run.
type meetingRun struct {
	sys   *meetingSystem
	steps int
	setup setupTimes
	lag   []time.Duration // per tile-frame
	late  []time.Duration
	// traced only
	fanouts, demux, drains, replicates []time.Duration
	inSink                             time.Duration
	win                                windowStats
	heapMB                             float64
	processed                          int64 // tile-frames processed inside the window
	lost                               int64 // dropped or rejected tile-frames, failed calls
	snaps                              []session.ManagerSnapshot
}

func (in *meetingInputs) measure(seconds int, traced bool) (*meetingRun, error) {
	base := liveHeap()
	r := &meetingRun{steps: seconds * fps}
	var err error
	r.sys, r.setup, err = setupMedian(setupReps, func() (*meetingSystem, func(), error) { return in.build(traced) })
	if err != nil {
		return nil, err
	}
	sys := r.sys

	// The replicator is the fleet's own background loop, not load.
	var replErrs int64
	stopRepl := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(replicateEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopRepl:
				return
			case <-tick.C:
				t0 := time.Now()
				if err := sys.coord.Replicate(); err != nil {
					replErrs++
				}
				r.replicates = append(r.replicates, time.Since(t0))
			}
		}
	}()

	start := time.Now().Add(10 * time.Millisecond)
	dueAt := func(n int) time.Time { return start.Add(time.Duration(n) * period) }
	var feedErrs, demuxFaults, drainErrs int64
	var end time.Time
	r.lag = make([]time.Duration, 0, r.steps*meetTiles)
	w := startWindow(start)
	r.late = openLoop(r.steps, dueAt, func(n int) {
		frame := in.composite(identifyFrames + n)
		var t0 time.Time
		if traced {
			sys.timed.inSink = 0
			t0 = time.Now()
		}
		up, err := sys.fanout.Feed(frame)
		if traced {
			d := time.Since(t0)
			r.fanouts = append(r.fanouts, d)
			r.demux = append(r.demux, d-sys.timed.inSink)
			r.inSink += sys.timed.inSink
		}
		switch {
		case err != nil:
			feedErrs++
		case len(up.Frames) != meetTiles || len(up.Joins)+len(up.Leaves)+len(up.Rejoins) > 0:
			demuxFaults++
		}
	}, func(n int, due time.Time) {
		for _, id := range sys.ids {
			t0 := time.Now()
			err := sys.coord.Drain(id)
			end = time.Now()
			if traced {
				r.drains = append(r.drains, end.Sub(t0))
			}
			if err != nil {
				drainErrs++
			}
			r.lag = append(r.lag, end.Sub(due))
		}
	})
	r.win = w.stop(end)
	close(stopRepl)
	wg.Wait()
	r.heapMB = heapMBAbove(base) / meetTiles
	for _, sp := range sys.shards {
		snap := sp.mgr.Stats()
		r.snaps = append(r.snaps, snap)
		for _, st := range snap.Sessions {
			r.processed += int64(st.FramesProcessed) - identifyFrames
			r.lost += int64(st.FramesDropped + st.FramesRejected)
		}
	}
	r.lost += (feedErrs+demuxFaults)*meetTiles + drainErrs + replErrs
	return r, nil
}

// verify detaches every tile session and checks its .bbck bytes against
// a standalone stream fed the participant's shown frames directly, then
// stops the system. It returns whether every tile matched and how many
// tile-frames failed.
func (in *meetingInputs) verify(r *meetingRun, flip bool) (bool, int64, error) {
	got := make([][]byte, len(r.sys.ids))
	var errs []error
	for i, id := range r.sys.ids {
		data, err := r.sys.coord.Detach(id)
		got[i] = data
		errs = append(errs, err)
	}
	errs = append(errs, r.sys.stop())
	if err := errors.Join(errs...); err != nil {
		return false, 0, err
	}
	refs := make([][]byte, len(r.sys.ids))
	err := parallel(len(refs), func(i int) error {
		st, err := core.NewStream(tileW, tileH, in.options(r.sys.ids[i]))
		if err != nil {
			return err
		}
		for n := 0; n < identifyFrames+r.steps; n++ {
			if err := st.Feed(in.shown(r.sys.partOf[i], n), in.empty); err != nil {
				return err
			}
		}
		refs[i], err = st.Checkpoint()
		return err
	})
	if err != nil {
		return false, 0, fmt.Errorf("reference: %w", err)
	}
	correct, failed := true, r.lost
	for i := range refs {
		if !verifyBytes(got[i], refs[i], flip && i == 0) {
			correct = false
			failed += int64(r.steps)
		}
	}
	return correct, failed, nil
}

func (r *meetingRun) cpuPerFrame() time.Duration {
	return r.win.cpu / time.Duration(max(r.processed, 1))
}

func runMeeting(cfg runConfig) (*outcome, error) {
	in, err := newMeetingInputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	out := &outcome{values: map[string]float64{}, correct: true}
	pass := func(traced bool) (*meetingRun, error) {
		r, err := in.measure(cfg.seconds, traced)
		if err != nil {
			return nil, err
		}
		ok, failed, err := in.verify(r, cfg.flip)
		if err != nil {
			return nil, err
		}
		out.correct = out.correct && ok
		out.attempted += int64(r.steps * meetTiles)
		out.failed += failed
		out.notef("meeting traced=%v: %d tiles x %d composites at %d fps over %d shards, lag p50 %.3f ms p99 %.3f ms (n=%d), generator late p99 %.3f ms, cpu %.4f ms/tile-frame, lost %d, correct %v",
			traced, meetTiles, r.steps, fps, meetShards, ms(median(r.lag)), ms(quantile(r.lag, 0.99)), len(r.lag),
			ms(quantile(r.late, 0.99)), ms(r.cpuPerFrame()), r.lost, ok)
		return r, nil
	}
	u, err := pass(false)
	if err != nil {
		return nil, err
	}
	out.set("setup_s", u.setup.cpu.Seconds())
	out.set("cpu_ms_per_frame", ms(u.cpuPerFrame()))
	out.set("heap_mb_per_session", u.heapMB)
	out.notef("not gated: setup_wall_s %.4f s, lag_p50_ms %.3f ms, lag_p99_ms %.3f ms (n=%d), frames_per_s %.2f 1/s, loadgen.late_p99_ms %.3f ms, fail_frac %.4f",
		u.setup.wall.Seconds(), ms(median(u.lag)), ms(quantile(u.lag, 0.99)), len(u.lag),
		float64(u.processed)/u.win.wall.Seconds(), ms(quantile(u.late, 0.99)),
		float64(out.failed)/float64(out.attempted))
	if !cfg.trace {
		return out, nil
	}

	t, err := pass(true)
	if err != nil {
		return nil, err
	}
	id0, p0 := t.sys.ids[0], t.sys.partOf[0]
	feed, err := streamProbe(tileW, tileH, in.options(id0), func(n int) (*imagex.Image, *imagex.Mask) { return in.shown(p0, n), in.empty })
	if err != nil {
		return nil, err
	}
	tiles := make([]*imagex.Image, 100)
	empties := make([]*imagex.Mask, len(tiles))
	for n := range tiles {
		tiles[n], empties[n] = in.shown(p0, n), in.empty
	}
	wire, err := wireProbe(id0, tiles[0], in.empty)
	if err != nil {
		return nil, err
	}
	feed.set(out)
	out.set("segment.segment_us_p50", us(median(segTimes(t.sys.segs))))
	out.set("segment.allocs_per_frame", segmentAllocs(in.options(id0).Segmenter, tiles, empties))
	out.set("session.wait_us_p50", us(median(t.lag)-feed.p50))
	var dropped, rejected uint64
	for _, snap := range t.snaps {
		dropped += sumSnap(snap, func(s session.Snapshot) uint64 { return s.FramesDropped })
		rejected += sumSnap(snap, func(s session.Snapshot) uint64 { return s.FramesRejected })
	}
	out.set("session.dropped", float64(dropped))
	out.set("session.rejected", float64(rejected))
	out.set("gallery.demux_us_p50", us(median(t.demux)))
	out.set("gallery.handoff_share", float64(t.inSink)/float64(total(t.fanouts)))
	out.set("fleet.feed_rpc_us_p50", us(median(t.sys.timed.feeds)))
	out.set("fleet.wire_encode_us", us(wire.encode))
	out.set("fleet.wire_decode_us", us(wire.decode))
	out.set("fleet.wire_bytes_per_frame", float64(wire.bytes))
	out.set("fleet.drain_rpc_us_p50", us(median(t.drains)))
	out.set("fleet.replicate_ms", ms(median(t.replicates)))
	t.win.setRuntime(out)
	out.set("loadgen.late_p99_ms", ms(quantile(t.late, 0.99)))
	// Shards run without a checkpoint store (replication is the
	// coordinator's); live-calls exercises the session enqueue path.
	setZero(out, "session.enqueue_us_p50", "session.checkpoints", "session.checkpoint_errors",
		"core.reconstruct_ms_per_call", "core.reconstruct_allocs_per_frame",
		"vidstream.decode_ms_per_call", "attacks.location_rank_ms_per_call", "loadgen.knee_calls")

	frames := time.Duration(max(t.processed, 1))
	parts := []part{
		{"core feed (standalone mean, unknown VB)", feed.mean},
		{"gallery demux self time per tile", total(t.demux) / frames},
		{"fleet wire encode+decode (standalone)", wire.encode + wire.decode},
		{"checkpoint encode for replication (standalone x 1/s)", feed.encode * time.Duration(meetTiles*len(t.replicates)) / frames},
	}
	out.set("trace.residual_pct", breakdown(out, "meeting cpu_ms_per_frame (per tile-frame)", u.cpuPerFrame(), parts))
	out.set("trace.overhead_pct", overhead(out, u.cpuPerFrame(), t.cpuPerFrame(), median(u.lag), median(t.lag)))
	return out, nil
}

// wireStats is what wireProbe measured.
type wireStats struct {
	encode, decode time.Duration
	bytes          int
}

// wireProbe times fleet.Encode and fleet.Decode of the feed request
// that carries one tile frame.
func wireProbe(id string, img *imagex.Image, oracle *imagex.Mask) (wireStats, error) {
	var ws wireStats
	msg := &fleet.Message{Type: fleet.MsgFeed, Spec: fleet.OpenSpec{ID: id}, Frames: []core.Frame{{Img: img, Oracle: oracle}}}
	enc := make([]time.Duration, wireReps)
	dec := make([]time.Duration, wireReps)
	for i := range enc {
		t0 := time.Now()
		data, err := fleet.Encode(msg)
		enc[i] = time.Since(t0)
		if err != nil {
			return ws, err
		}
		ws.bytes = len(data)
		t0 = time.Now()
		_, err = fleet.Decode(data)
		dec[i] = time.Since(t0)
		if err != nil {
			return ws, err
		}
	}
	ws.encode, ws.decode = median(enc), median(dec)
	return ws, nil
}

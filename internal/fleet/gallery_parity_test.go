package fleet

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/bgbuster/bgbuster/internal/core"
	"github.com/bgbuster/bgbuster/internal/gallery"
	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/session"
	"github.com/bgbuster/bgbuster/internal/vidstream"
)

// newGalleryShard returns an in-process shard over a fresh manager —
// the SessionAPI local gallery ingestion drives — and the manager, for
// Get and Len.
func newGalleryShard(tb testing.TB, queue int) (*Shard, *session.Manager) {
	tb.Helper()
	mgr := session.NewManager(session.Config{QueueDepth: queue})
	tb.Cleanup(func() { mgr.Close() })
	sh, err := NewShard(ShardConfig{Manager: mgr, OptionsFor: fleetTestOptions})
	if err != nil {
		tb.Fatal(err)
	}
	return sh, mgr
}

// parityMeeting builds the seeded meeting the acceptance criterion
// names: n participants from frame 0, one extra joining at frame 8
// (grid grows — mid-call resize), and participant 0 leaving at frame
// 12 (grid shrinks back).
func parityMeeting(t *testing.T, n int) ([]gallery.Participant, *gallery.Result) {
	t.Helper()
	parts := make([]gallery.Participant, 0, n+1)
	for i := 0; i < n; i++ {
		length := 24
		if i == 0 {
			length = 12 // leaves mid-call
		}
		parts = append(parts, gallery.Participant{Frames: galleryLeakStream(i, length), JoinAt: 0})
	}
	parts = append(parts, gallery.Participant{Frames: galleryLeakStream(n, 16), JoinAt: 8})
	res, err := gallery.Compose(parts, gallery.Spec{Seed: int64(n)})
	if err != nil {
		t.Fatalf("Compose: %v", err)
	}
	return parts, res
}

// laneToParticipant recovers the deterministic lane→participant map by
// demuxing the composite standalone and matching first frames.
func laneToParticipant(t *testing.T, parts []gallery.Participant, res *gallery.Result, cfg gallery.Config) map[int]int {
	t.Helper()
	lanes, _, err := gallery.SplitVideo(res.Video, cfg)
	if err != nil {
		t.Fatalf("SplitVideo: %v", err)
	}
	if len(lanes) != len(parts) {
		t.Fatalf("%d lanes for %d participants", len(lanes), len(parts))
	}
	m := map[int]int{}
	for _, ls := range lanes {
		pi := -1
		for i, p := range parts {
			for _, f := range p.Frames.Frames {
				if f.Equal(ls.Video.Frames[0]) {
					pi = i
					break
				}
			}
			if pi >= 0 {
				break
			}
		}
		if pi < 0 {
			t.Fatalf("lane %d matches no participant", ls.Lane)
		}
		m[ls.Lane] = pi
	}
	return m
}

// TestGalleryParityDemuxVsDirect is the acceptance-criterion proof:
// for seeded N∈{2,4,9} meetings with a mid-call resize (one join, one
// leave), feeding the composite through a GallerySink over a local
// shard leaves
// every participant session with checkpoint bytes bit-identical to a
// manager fed the source streams directly.
func TestGalleryParityDemuxVsDirect(t *testing.T) {
	for _, n := range []int{2, 4, 9} {
		n := n
		t.Run(map[int]string{2: "N2", 4: "N4", 9: "N9"}[n], func(t *testing.T) {
			parts, res := parityMeeting(t, n)
			demuxCfg := gallery.Config{}

			// Gallery side: one composite stream in.
			sh, gmgr := newGalleryShard(t, 256)
			fan, sink := NewGalleryFanout(demuxCfg, sh)
			for i, f := range res.Video.Frames {
				if _, err := fan.Feed(f); err != nil {
					t.Fatalf("fanout frame %d: %v", i, err)
				}
			}
			if stats := fan.Demux().Stats(); stats.Retiles < 2 {
				t.Fatalf("expected ≥2 retiles (join+leave), stats %+v", stats)
			}

			// Direct side: each participant's shown frames fed straight in.
			dmgr := session.NewManager(session.Config{QueueDepth: 256})
			defer dmgr.Close()
			direct := map[int][]byte{} // participant -> checkpoint bytes
			for pi, p := range parts {
				shown := res.ShownFrames(pi)
				id := fmt.Sprintf("direct-%d", pi)
				s, err := dmgr.Open(id, fw, fh, fleetTestOptions(OpenSpec{ID: id, W: fw, H: fh}))
				if err != nil {
					t.Fatalf("direct open %d: %v", pi, err)
				}
				oracle := imagex.NewMask(fw, fh)
				for _, local := range shown {
					if err := s.Feed(p.Frames.Frames[local], oracle); err != nil {
						t.Fatalf("direct feed %d: %v", pi, err)
					}
				}
				data, err := s.Detach()
				if err != nil {
					t.Fatalf("direct detach %d: %v", pi, err)
				}
				direct[pi] = data
			}

			// Collect the gallery side: live sessions detach now; the
			// leaver's snapshot is already held by the sink.
			laneOf := laneToParticipant(t, parts, res, demuxCfg)
			for lane, pi := range laneOf {
				id := gallery.DefaultTileID(lane)
				var got []byte
				if s, ok := gmgr.Get(id); ok {
					data, err := s.Detach()
					if err != nil {
						t.Fatalf("gallery detach %s: %v", id, err)
					}
					got = data
				} else {
					data, ok := sink.Detached(id)
					if !ok {
						t.Fatalf("gallery %s: not live and no snapshot", id)
					}
					got = data
				}
				want := direct[pi]
				if !bytes.Equal(got, want) {
					t.Errorf("participant %d (lane %d): checkpoint bytes differ: gallery %d bytes, direct %d bytes",
						pi, lane, len(got), len(want))
				}
			}
			// Participant 0 left mid-call: its snapshot must have come
			// from the sink (session gone), proving the leave path ran.
			var leaverLane = -1
			for lane, pi := range laneOf {
				if pi == 0 {
					leaverLane = lane
				}
			}
			if _, ok := gmgr.Get(gallery.DefaultTileID(leaverLane)); ok {
				t.Errorf("leaver session still open after leave")
			}
		})
	}
}

// TestGalleryLeaveBeforeIdentifyNotPinned is the eviction-semantics
// regression: a gallery participant who leaves BEFORE IdentifyAfter
// frames must be snapshotted with identification un-pinned (Detach
// semantics), so a rejoin carries on bit-identically with a session
// that never left. Finalize-on-evict would pin the VB on the
// half-filled window and diverge.
func TestGalleryLeaveBeforeIdentifyNotPinned(t *testing.T) {
	if core.DefaultIdentifyAfter < 8 {
		t.Skip("default identification window too small for the scenario")
	}
	const early = 6 // < DefaultIdentifyAfter
	p0 := gallery.Participant{Frames: galleryLeakStream(0, 30), JoinAt: 0}
	p1 := gallery.Participant{Frames: galleryLeakStream(1, early), JoinAt: 0} // leaves inside the window
	res, err := gallery.Compose([]gallery.Participant{p0, p1}, gallery.Spec{})
	if err != nil {
		t.Fatal(err)
	}

	sh, _ := newGalleryShard(t, 256)
	fan, sink := NewGalleryFanout(gallery.Config{}, sh)
	for i, f := range res.Video.Frames {
		if _, err := fan.Feed(f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}

	laneOf := laneToParticipant(t, []gallery.Participant{p0, p1}, res, gallery.Config{})
	leaverID := ""
	for lane, pi := range laneOf {
		if pi == 1 {
			leaverID = gallery.DefaultTileID(lane)
		}
	}
	if leaverID == "" {
		t.Fatal("no lane mapped to the early leaver")
	}
	snap, ok := sink.Detached(leaverID)
	if !ok {
		t.Fatal("leaver snapshot missing")
	}

	// Resume the snapshot and feed the frames the participant would
	// have sent had they stayed.
	tail := galleryLeakStream(1, 30)
	rmgr := session.NewManager(session.Config{QueueDepth: 256})
	defer rmgr.Close()
	rs, err := rmgr.ResumeSession("rejoin", snap, fleetTestOptions(OpenSpec{ID: "rejoin", W: fw, H: fh}))
	if err != nil {
		t.Fatalf("resume from early-leave snapshot: %v", err)
	}
	oracle := imagex.NewMask(fw, fh)
	for i := early; i < tail.Len(); i++ {
		if err := rs.Feed(tail.Frames[i], oracle); err != nil {
			t.Fatalf("resumed feed %d: %v", i, err)
		}
	}
	resumed, err := rs.Detach()
	if err != nil {
		t.Fatalf("resumed detach: %v", err)
	}

	// Uninterrupted control session over the same full stream.
	cs, err := rmgr.Open("control", fw, fh, fleetTestOptions(OpenSpec{ID: "control", W: fw, H: fh}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tail.Len(); i++ {
		if err := cs.Feed(tail.Frames[i], oracle); err != nil {
			t.Fatalf("control feed %d: %v", i, err)
		}
	}
	control, err := cs.Detach()
	if err != nil {
		t.Fatalf("control detach: %v", err)
	}
	if !bytes.Equal(resumed, control) {
		t.Fatalf("leave-before-IdentifyAfter snapshot did not carry on bit-identically: identification was pinned early (resumed %d bytes, control %d bytes)",
			len(resumed), len(control))
	}
}

// TestGalleryRejoinResumesSession: a participant who leaves and comes
// back lands on the SAME session id, resumed from the detach snapshot
// (lane ids are stable and the sink keeps the bytes).
func TestGalleryRejoinResumesSession(t *testing.T) {
	const w, h = fw, fh
	p0 := galleryLeakStream(0, 30)
	p1 := galleryLeakStream(1, 30)
	spec := gallery.Spec{Capacity: 2}
	specR := spec
	specR.TileW, specR.TileH = w, h
	cw, ch := specR.Canvas()
	_ = cw

	comp := vidstream.New(30)
	appendFrame := func(imgs ...*imagex.Image) {
		f := imagex.NewFilled(cw, ch, imagex.RGB{R: 32, G: 32, B: 32})
		rects, err := specR.LayoutFor(len(imgs))
		if err != nil {
			t.Fatal(err)
		}
		for i, im := range imgs {
			if err := f.Blit(im, rects[i].X, rects[i].Y); err != nil {
				t.Fatal(err)
			}
		}
		if err := comp.Append(f); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		appendFrame(p0.Frames[i], p1.Frames[i])
	}
	for i := 10; i < 20; i++ {
		appendFrame(p0.Frames[i])
	}
	for i := 20; i < 30; i++ {
		appendFrame(p0.Frames[i], p1.Frames[i])
	}

	sh, mgr := newGalleryShard(t, 256)
	fan, _ := NewGalleryFanout(gallery.Config{Rejoin: true}, sh)
	rejoins := 0
	for i, f := range comp.Frames {
		up, err := fan.Feed(f)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		rejoins += len(up.Rejoins)
	}
	if rejoins != 1 {
		t.Fatalf("rejoins = %d, want 1", rejoins)
	}
	if mgr.Len() != 2 {
		t.Fatalf("open sessions = %d, want 2 (rejoin must reuse the session id)", mgr.Len())
	}
}

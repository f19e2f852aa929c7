package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/bgbuster/bgbuster"
	"github.com/bgbuster/bgbuster/internal/fleet"
	"github.com/bgbuster/bgbuster/internal/gallery"
	"github.com/bgbuster/bgbuster/internal/session"
	"github.com/bgbuster/bgbuster/internal/vidstream"
)

// galleryRun carries the `live -gallery` flags (parsed in runLive)
// into the gallery ingest path: one composite meeting stream in, one
// supervised session per detected participant tile out (DESIGN.md §16).
type galleryRun struct {
	phase        string // dataset call behind each synthetic participant
	callIndex    int
	in           string // pre-recorded composite .bbv (skips synthesis)
	software     string
	participants int
	frames       int
	unknownVB    bool
	rate         float64
	every        time.Duration
	queue        int
	seed         int64
	out          string
	connect      string // fleet coordinator address ("" = local manager)
	speakerEvery int
	pageSize     int
	pageEvery    int
	churn        bool // stagger one late join and one early leave
}

// galleryTileSeed derives a stable per-tile option seed from the base
// seed and the tile's session id, so a rejoining participant resumes
// under exactly the options it was opened with.
func galleryTileSeed(base int64, id string) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return base + int64(h.Sum64()>>1)
}

// galleryMeeting synthesizes the composite: the picked dataset call is
// rendered once, then composed per participant under a rotating
// virtual background and a perturbed seed so every tile carries a
// distinct blend (the demuxer tracks participants by content). With
// churn, the last participant joins a quarter in and participant 0
// leaves a quarter early, exercising the join/leave grid resizes.
func galleryMeeting(g galleryRun) (*vidstream.Video, string, error) {
	call, err := pickCall(g.phase, g.callIndex)
	if err != nil {
		return nil, "", err
	}
	if g.frames > 0 && g.frames < call.Frames {
		call.Frames = g.frames
	}
	rendered, err := call.Render()
	if err != nil {
		return nil, "", err
	}
	profile := bgbuster.ZoomProfile()
	if g.software == "skype" {
		profile = bgbuster.SkypeProfile()
	} else if g.software != "zoom" {
		return nil, "", fmt.Errorf("unknown software %q", g.software)
	}
	w, h := rendered.Raw.Size()
	names := bgbuster.BuiltinVirtualImageNames()
	total := rendered.Raw.Len()
	parts := make([]gallery.Participant, g.participants)
	for i := range parts {
		vb := names[i%len(names)]
		composed, err := bgbuster.Compose(rendered.Raw, rendered.Silhouettes, profile,
			bgbuster.StaticImage{Img: bgbuster.BuiltinVirtualImage(vb, w, h)}, nil, g.seed+int64(i))
		if err != nil {
			return nil, "", err
		}
		stream := composed.Blended
		joinAt := 0
		if g.churn && g.participants >= 3 {
			switch i {
			case 0: // leaves a quarter early
				stream = stream.Slice(0, total-total/4)
			case g.participants - 1: // joins a quarter in
				joinAt = total / 4
				stream = stream.Slice(0, total-joinAt)
			}
		}
		parts[i] = gallery.Participant{Frames: stream, JoinAt: joinAt}
	}
	spec := gallery.Spec{Seed: g.seed, PageSize: g.pageSize, PageEvery: g.pageEvery}
	if g.speakerEvery > 0 {
		spec.Variant = gallery.VariantActiveSpeaker
		spec.SpeakerEvery = g.speakerEvery
	}
	res, err := gallery.Compose(parts, spec)
	if err != nil {
		return nil, "", err
	}
	cw, ch := res.Video.Size()
	source := fmt.Sprintf("synthetic %d-participant meeting over call %s (%s, %dx%d composite, %s)",
		g.participants, call.ID, g.phase, cw, ch, spec.Variant)
	return res.Video, source, nil
}

func runLiveGallery(g galleryRun) error {
	var composite *vidstream.Video
	var source string
	if g.in != "" {
		v, err := vidstream.Load(g.in)
		if err != nil {
			return err
		}
		if g.frames > 0 && g.frames < v.Len() {
			v = v.Slice(0, g.frames)
		}
		composite = v
		source = fmt.Sprintf("composite replay of %s", g.in)
	} else {
		v, s, err := galleryMeeting(g)
		if err != nil {
			return err
		}
		composite, source = v, s
	}
	fps := g.rate
	if fps == 0 {
		fps = float64(composite.FPS)
	}
	var frameGap time.Duration
	if fps > 0 {
		frameGap = time.Duration(float64(time.Second) / fps)
	}
	cw, ch := composite.Size()
	fmt.Printf("live -gallery: %s — %d frames %dx%d at %.3g fps\n",
		source, composite.Len(), cw, ch, fps)

	// One ingest loop over a fleet.SessionAPI: the -connect
	// coordinator, or an in-process shard over a local manager.
	var (
		api fleet.SessionAPI
		cli *fleet.Client
		mgr *session.Manager
	)
	if g.connect != "" {
		var err error
		if cli, err = fleet.Dial(g.connect, fleet.Limits{}); err != nil {
			return err
		}
		defer cli.Close()
		api = cli
	} else {
		mgr = session.NewManager(session.Config{
			QueueDepth: g.queue,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "bgbuster: gallery: "+format+"\n", args...)
			},
		})
		defer mgr.Close()
		sh, err := fleet.NewShard(fleet.ShardConfig{Manager: mgr, OptionsFor: shardOptions})
		if err != nil {
			return err
		}
		api = sh
	}
	fan, sink := fleet.NewGalleryFanout(gallery.Config{Rejoin: true}, api)
	sink.SpecFor = func(id string, w, h int) fleet.OpenSpec {
		return fleet.OpenSpec{ID: id, W: w, H: h, UnknownVB: g.unknownVB, Seed: galleryTileSeed(g.seed, id)}
	}

	agg := &aggregatePrinter{start: time.Now()}
	last := time.Now()
	seen := map[string]bool{}
	for i, f := range composite.Frames {
		if frameGap > 0 && i > 0 {
			time.Sleep(frameGap)
		}
		up, err := fan.Feed(f)
		if err != nil {
			return fmt.Errorf("composite frame %d: %w", i, err)
		}
		galleryEvents(i, up, seen)
		if mgr != nil && time.Since(last) >= g.every {
			agg.print(mgr.Stats())
			last = time.Now()
		}
	}
	st := fan.Demux().Stats()
	fmt.Printf("demux: %d frames, %d rejected, %d retiles, %d joins, %d leaves, %d rejoins, %d flap-dropped\n",
		st.Frames, st.Rejected, st.Retiles, st.Joins, st.Leaves, st.Rejoins, st.DroppedFlaps)
	ids := make([]string, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	// The report reads each live participant where it lives: through
	// the coordinator (drain, then snapshot, then close, so the
	// coordinator routes none of this meeting's ids afterwards), or
	// from the local manager (finalize, then stats).
	var header string
	var row func(id string)
	if mgr == nil {
		header = "final per-participant stats (via coordinator):\n  id        frames  coverage  vb"
		row = func(id string) {
			defer func() {
				if err := cli.CloseSession(id); err != nil {
					fmt.Fprintf(os.Stderr, "bgbuster: gallery: close %s: %v\n", id, err)
				}
			}()
			if err := cli.Drain(id); err != nil {
				fmt.Fprintf(os.Stderr, "bgbuster: gallery: drain %s: %v\n", id, err)
				return
			}
			snap, err := cli.Snapshot(id)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bgbuster: gallery: snapshot %s: %v\n", id, err)
				return
			}
			fmt.Printf("  %-9s %6d %8.2f%%  %s\n", id, snap.StreamFrames, snap.Coverage*100, snap.VBName)
		}
	} else {
		header = "final per-participant stats:\n  id        frames  drop  rej  coverage  vb          health"
		row = func(id string) {
			s, ok := mgr.Get(id)
			if !ok {
				fmt.Printf("  %-9s closed\n", id)
				return
			}
			_ = s.Finalize()
			st := s.Stats()
			vb := st.VBName
			if vb == "" {
				vb = fmt.Sprintf("derived:%.0f%%", st.DerivedCoverage*100)
			}
			fmt.Printf("  %-9s %6d %5d %4d %8.2f%%  %-11s %s\n",
				st.ID, st.StreamFrames, st.FramesDropped, st.FramesRejected,
				st.CoveragePct, vb, st.Health)
		}
	}
	fmt.Println(header)
	for _, id := range ids {
		if _, left := sink.Detached(id); left {
			fmt.Printf("  %-9s left the meeting (detach snapshot held for rejoin)\n", id)
			continue
		}
		row(id)
	}
	if mgr == nil {
		if g.out != "" {
			fmt.Fprintln(os.Stderr, "bgbuster: gallery: -out needs a local manager; recovered images stay on the shards with -connect")
		}
		return nil
	}
	ms := mgr.Stats()
	fmt.Printf("manager: opened=%d closed=%d live=%d\n", ms.Opened, ms.Closed, mgr.Len())

	if g.out != "" {
		if err := os.MkdirAll(g.out, 0o755); err != nil {
			return err
		}
		written := 0
		for _, id := range ids {
			s, ok := mgr.Get(id)
			if !ok {
				continue
			}
			snap := s.Snapshot()
			path := filepath.Join(g.out, id+"-recovered.png")
			if err := snap.Recovered.WritePNG(path); err != nil {
				return fmt.Errorf("write %s: %w", path, err)
			}
			written++
		}
		fmt.Printf("%d recovered backgrounds written to %s/\n", written, g.out)
	}
	return nil
}

// galleryEvents prints participant membership changes as they happen.
func galleryEvents(frame int, up *gallery.Update, seen map[string]bool) {
	for _, lane := range up.Leaves {
		fmt.Printf("frame %d: %s left (grid resized)\n", frame, gallery.DefaultTileID(lane))
	}
	for _, lane := range up.Joins {
		id := gallery.DefaultTileID(lane)
		seen[id] = true
		fmt.Printf("frame %d: %s joined\n", frame, id)
	}
	for _, lane := range up.Rejoins {
		fmt.Printf("frame %d: %s rejoined (session resumed)\n", frame, gallery.DefaultTileID(lane))
	}
}

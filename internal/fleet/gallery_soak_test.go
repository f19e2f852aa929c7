package fleet

import (
	"bytes"
	"testing"

	"github.com/bgbuster/bgbuster/internal/core"
	"github.com/bgbuster/bgbuster/internal/faultinject"
	"github.com/bgbuster/bgbuster/internal/gallery"
	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/session"
	"github.com/bgbuster/bgbuster/internal/vidstream"
)

// galleryLeakStream is one meeting participant's camera at the fleet
// test geometry: the "flat" VB with a per-participant-colored moving
// leak rectangle, so checkpoints differ per prefix and the demuxer can
// track participants by content. Ten colours keep participants 0–9 (the
// N9 parity meeting) distinct.
func galleryLeakStream(pi, n int) *vidstream.Video {
	colors := []imagex.RGB{
		{R: 240, G: 240, B: 60}, {R: 240, G: 60, B: 240}, {R: 60, G: 240, B: 240},
		{R: 250, G: 160, B: 30}, {R: 30, G: 250, B: 120}, {R: 160, G: 30, B: 250},
		{R: 250, G: 250, B: 250}, {R: 150, G: 90, B: 60}, {R: 90, G: 150, B: 200},
		{R: 250, G: 60, B: 60},
	}
	c := colors[pi%len(colors)]
	v := vidstream.New(30)
	for i := 0; i < n; i++ {
		f := imagex.NewFilled(fw, fh, imagex.RGB{R: 20, G: 120, B: 220})
		x0 := 4 + (i+pi)%8
		y0 := 6 + pi%4
		for y := y0; y < y0+18 && y < fh; y++ {
			for x := x0; x < x0+16; x++ {
				f.Set(x, y, c)
			}
		}
		if err := v.Append(f); err != nil {
			panic(err)
		}
	}
	return v
}

// recordingAPI wraps a SessionAPI and logs every frame fed per id —
// the ground truth a recovery needs to refeed the at-risk window after
// a shard loss rewinds sessions to their replicated checkpoints.
type recordingAPI struct {
	SessionAPI
	fed map[string][]core.Frame
}

func (r *recordingAPI) Feed(id string, f core.Frame) error {
	r.fed[id] = append(r.fed[id], f)
	return r.SessionAPI.Feed(id, f)
}

// TestGalleryFleetSoakShardLoss is the gallery soak: a 7-participant
// meeting (one mid-call join, one mid-call leave) is composited into
// one stream, delivered under seeded drop/dup chaos, and fanned out
// through a coordinator onto two shards. One shard is killed
// mid-meeting; the coordinator must recover its participants
// bit-identically from replicated checkpoints, the feeder refeeds the
// at-risk window from its delivery log, and at meeting end EVERY
// participant session — including the one that left early — matches a
// plain local manager fed the demuxed sub-streams directly.
func TestGalleryFleetSoakShardLoss(t *testing.T) {
	const (
		nBase       = 6  // participants from frame 0
		joinAt      = 8  // one more joins here (grid resize)
		leaveLocal  = 20 // participant 0's stream length (leaves mid-call)
		meetingLen  = 26
		replicateAt = 12 // delivered frames before the replication pull
		killAt      = 14 // delivered frames before the shard dies
	)

	parts := make([]gallery.Participant, 0, nBase+1)
	for i := 0; i < nBase; i++ {
		length := meetingLen
		if i == 0 {
			length = leaveLocal
		}
		parts = append(parts, gallery.Participant{Frames: galleryLeakStream(i, length), JoinAt: 0})
	}
	parts = append(parts, gallery.Participant{Frames: galleryLeakStream(nBase, meetingLen-joinAt), JoinAt: joinAt})
	res, err := gallery.Compose(parts, gallery.Spec{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}

	// The delivery schedule the meeting actually experiences: seeded
	// drops and duplicates of whole composite frames.
	inj := faultinject.New(faultinject.Profile{Seed: 11, Drop: 0.08, Dup: 0.08})
	oracles := make([]*imagex.Mask, res.Video.Len())
	cw, ch := res.Video.Size()
	for i := range oracles {
		oracles[i] = imagex.NewMask(cw, ch)
	}
	delivery := inj.Apply(res.Video.Frames, oracles)
	if len(delivery) <= killAt+2 {
		t.Fatalf("delivery schedule too short (%d) for the kill point", len(delivery))
	}
	t.Logf("delivery: %d frames from %d composed (%v)", len(delivery), res.Video.Len(), inj.Counters())

	// Local baseline: demux the SAME delivered sequence standalone and
	// feed each lane straight into a plain manager. The fleet leg must
	// end bit-identical to this despite the shard kill.
	demuxCfg := gallery.Config{}
	delivered := vidstream.New(30)
	for _, d := range delivery {
		if err := delivered.Append(d.Img); err != nil {
			t.Fatal(err)
		}
	}
	baseLanes, baseStats, err := gallery.SplitVideo(delivered, demuxCfg)
	if err != nil {
		t.Fatalf("baseline SplitVideo: %v", err)
	}
	if len(baseLanes) != nBase+1 {
		t.Fatalf("baseline demux found %d lanes, want %d (stats %+v)", len(baseLanes), nBase+1, baseStats)
	}
	spec0 := OpenSpec{W: fw, H: fh, Seed: 1}
	base := session.NewManager(session.Config{QueueDepth: 256})
	defer base.Close()
	wantBytes := map[string][]byte{} // tile id -> final checkpoint bytes
	emptyOracle := imagex.NewMask(fw, fh)
	for _, ls := range baseLanes {
		id := gallery.DefaultTileID(ls.Lane)
		bs, err := base.Open("base-"+id, fw, fh, fleetTestOptions(spec0))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range ls.Video.Frames {
			if err := bs.Feed(f, emptyOracle); err != nil {
				t.Fatal(err)
			}
		}
		data, err := bs.Detach()
		if err != nil {
			t.Fatal(err)
		}
		wantBytes[id] = data
	}

	// Fleet leg: coordinator over two shards, gallery fan-out on top.
	sA, sB := startShard(t), startShard(t)
	store := session.NewMemStore()
	coord, err := NewCoordinator(CoordinatorConfig{
		Shards: []string{sA.addr, sB.addr},
		Store:  store,
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	rec := &recordingAPI{SessionAPI: coord, fed: map[string][]core.Frame{}}
	fan, sink := NewGalleryFanout(demuxCfg, rec)
	sink.SpecFor = func(id string, w, h int) OpenSpec {
		return OpenSpec{ID: id, W: w, H: h, Seed: 1}
	}

	openIDs := func() []string {
		var ids []string
		for _, lane := range fan.Demux().Lanes() {
			ids = append(ids, gallery.DefaultTileID(lane))
		}
		return ids
	}
	feedRange := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if _, err := fan.Feed(delivery[i].Img); err != nil {
				t.Fatalf("composite frame %d: %v", i, err)
			}
		}
	}

	feedRange(0, replicateAt)
	// Random ports occasionally hash every tile onto one shard; migrate
	// one tile over — before the replicate snapshot below, so its stored
	// checkpoint matches the others' — and the kill later always loses
	// sessions.
	{
		byShard := map[string][]string{}
		for _, id := range openIDs() {
			byShard[coord.RouteOf(id)] = append(byShard[coord.RouteOf(id)], id)
		}
		for _, pair := range [][2]string{{sA.addr, sB.addr}, {sB.addr, sA.addr}} {
			from, to := pair[0], pair[1]
			if len(byShard[to]) == 0 {
				id := byShard[from][0]
				if err := coord.Migrate(id, to); err != nil {
					t.Fatalf("forcing meeting to span both shards: %v", err)
				}
				byShard[from] = byShard[from][1:]
				byShard[to] = []string{id}
			}
		}
	}
	for _, id := range openIDs() {
		if err := coord.Drain(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := coord.Replicate(); err != nil {
		t.Fatal(err)
	}
	replicated := map[string][]byte{}
	for _, id := range openIDs() {
		b, err := store.Load(id)
		if err != nil {
			t.Fatalf("replicated checkpoint missing for %s: %v", id, err)
		}
		replicated[id] = b
	}

	// The at-risk window, then the kill between composite frames.
	feedRange(replicateAt, killAt)
	byShard := map[string][]string{}
	for _, id := range openIDs() {
		byShard[coord.RouteOf(id)] = append(byShard[coord.RouteOf(id)], id)
	}
	if len(byShard[sA.addr]) == 0 || len(byShard[sB.addr]) == 0 {
		t.Fatalf("meeting does not span both shards: %v", byShard)
	}
	lost := byShard[sB.addr]
	sB.ln.Kill()

	// One routed request to a lost session recovers every orphan of
	// the dead shard from its replicated checkpoint.
	if _, err := coord.Snapshot(lost[0]); err != nil {
		t.Fatalf("snapshot across shard loss: %v", err)
	}
	if down := coord.Down(); len(down) != 1 || down[0] != sB.addr {
		t.Fatalf("down = %v, want [%s]", down, sB.addr)
	}
	for _, id := range lost {
		if coord.RouteOf(id) != sA.addr {
			t.Fatalf("%s not re-routed to survivor", id)
		}
		got, err := coord.Checkpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, replicated[id]) {
			t.Fatalf("%s: recovered state not bit-identical to replicated checkpoint", id)
		}
	}

	// Refeed each session's at-risk gap from the delivery log, then
	// carry the meeting on through the fan-out.
	for _, id := range openIDs() {
		if err := coord.Drain(id); err != nil {
			t.Fatal(err)
		}
		snap, err := coord.Snapshot(id)
		if err != nil {
			t.Fatal(err)
		}
		logged := rec.fed[id]
		if int(snap.StreamFrames) > len(logged) {
			t.Fatalf("%s: session at %d frames but only %d logged", id, snap.StreamFrames, len(logged))
		}
		for _, f := range logged[snap.StreamFrames:] {
			if err := coord.Feed(id, f); err != nil {
				t.Fatalf("refeed %s: %v", id, err)
			}
		}
		rec.fed[id] = logged // refeeds bypass the recorder on purpose
	}
	feedRange(killAt, len(delivery))

	// Meeting over: compare every participant with the local baseline.
	// The early leaver was detached by the sink; everyone else drains
	// and detaches through the coordinator.
	checked := 0
	for _, ls := range baseLanes {
		id := gallery.DefaultTileID(ls.Lane)
		want := wantBytes[id]
		if data, ok := sink.Detached(id); ok {
			if !bytes.Equal(data, want) {
				t.Errorf("%s (left early): detach snapshot diverged from baseline (%d vs %d bytes)", id, len(data), len(want))
			}
			checked++
			continue
		}
		if err := coord.Drain(id); err != nil {
			t.Fatal(err)
		}
		got, err := coord.Detach(id)
		if err != nil {
			t.Fatalf("detach %s: %v", id, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: post-recovery state diverged from baseline (%d vs %d bytes)", id, len(got), len(want))
		}
		checked++
	}
	if checked != nBase+1 {
		t.Fatalf("checked %d participants, want %d", checked, nBase+1)
	}
	resumed, reopened, failed := coord.Recoveries()
	t.Logf("recoveries: %d resumed, %d reopened, %d failed; demux %+v", resumed, reopened, failed, fan.Demux().Stats())
	if resumed != uint64(len(lost)) || failed != 0 {
		t.Errorf("recoveries = (%d, %d, %d), want (%d resumed, 0 reopened, 0 failed)", resumed, reopened, failed, len(lost))
	}
}

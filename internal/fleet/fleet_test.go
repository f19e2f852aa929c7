package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/bgbuster/bgbuster/internal/core"
	"github.com/bgbuster/bgbuster/internal/faultinject"
	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/segment"
	"github.com/bgbuster/bgbuster/internal/session"
)

const fw, fh = 48, 36

// fleetTestOptions is the OptionsFor hook under test: a two-candidate
// known-image dictionary at the spec geometry plus the oracle
// segmenter — deterministic, so any two sessions fed the same frames
// produce bit-identical checkpoints.
func fleetTestOptions(spec OpenSpec) core.Options {
	o := core.DefaultOptions()
	o.KnownImages = map[string]*imagex.Image{
		"flat":  imagex.NewFilled(spec.W, spec.H, imagex.RGB{R: 20, G: 120, B: 220}),
		"other": imagex.NewFilled(spec.W, spec.H, imagex.RGB{R: 200, G: 10, B: 10}),
	}
	o.Segmenter = segment.OracleSegmenter{}
	o.ColorRefine = false
	return o
}

// leakFrames builds n frames of pure "flat" VB with a per-frame-moving
// leaked background rectangle (so every prefix length yields distinct
// checkpoint bytes), plus empty oracle silhouettes.
func leakFrames(n int) ([]*imagex.Image, []*imagex.Mask) {
	frames := make([]*imagex.Image, n)
	sils := make([]*imagex.Mask, n)
	for i := range frames {
		f := imagex.NewFilled(fw, fh, imagex.RGB{R: 20, G: 120, B: 220})
		x0 := 4 + i%8
		for y := 6; y < 24; y++ {
			for x := x0; x < x0+16; x++ {
				f.Set(x, y, imagex.RGB{R: 240, G: 240, B: 60})
			}
		}
		frames[i] = f
		sils[i] = imagex.NewMask(fw, fh)
	}
	return frames, sils
}

// chaosListener wraps a listener so a test can kill the shard the way
// a process death would: the listener stops accepting AND every
// established connection drops.
type chaosListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *chaosListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.conns = append(l.conns, c)
	l.mu.Unlock()
	return c, nil
}

func (l *chaosListener) Kill() {
	l.Listener.Close()
	l.mu.Lock()
	conns := l.conns
	l.conns = nil
	l.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

type testShard struct {
	addr string
	mgr  *session.Manager
	ln   *chaosListener
	done chan struct{}
}

// startShard boots one worker shard on a loopback port.
func startShard(t *testing.T) *testShard {
	t.Helper()
	return startShardAt(t, "127.0.0.1:0")
}

// startShardAt boots a worker shard on addr — a killed shard's address
// restarts "the same process" with empty state.
func startShardAt(t *testing.T, addr string) *testShard {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cl := &chaosListener{Listener: ln}
	mgr := session.NewManager(session.Config{})
	sh, err := NewShard(ShardConfig{Manager: mgr, OptionsFor: fleetTestOptions, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := &testShard{addr: ln.Addr().String(), mgr: mgr, ln: cl, done: make(chan struct{})}
	go func() {
		defer close(ts.done)
		sh.Serve(cl)
	}()
	t.Cleanup(func() {
		cl.Kill()
		<-ts.done
		mgr.Close()
	})
	return ts
}

func TestShardEndToEnd(t *testing.T) {
	ts := startShard(t)
	cl, err := Dial(ts.addr, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	spec := OpenSpec{ID: "call-00", W: fw, H: fh, Seed: 1}
	if err := cl.Open(spec); err != nil {
		t.Fatal(err)
	}
	var remote *RemoteError
	if err := cl.Open(spec); !errors.As(err, &remote) || remote.Code != CodeExists {
		t.Fatalf("duplicate open: %v", err)
	}
	if err := cl.Feed("ghost", core.Frame{Img: imagex.New(fw, fh), Oracle: imagex.NewMask(fw, fh)}); !errors.As(err, &remote) || remote.Code != CodeNoSession {
		t.Fatalf("feed unknown id: %v", err)
	}

	frames, sils := leakFrames(15)
	for i := 0; i < 5; i++ {
		if err := cl.Feed(spec.ID, core.Frame{Img: frames[i], Oracle: sils[i]}); err != nil {
			t.Fatal(err)
		}
	}
	batch := make([]core.Frame, 0, 10)
	for i := 5; i < 15; i++ {
		batch = append(batch, core.Frame{Img: frames[i], Oracle: sils[i]})
	}
	if err := cl.FeedN(spec.ID, batch); err != nil {
		t.Fatal(err)
	}
	if err := cl.Drain(spec.ID); err != nil {
		t.Fatal(err)
	}
	snap, err := cl.Snapshot(spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Fed != 15 || snap.Processed != 15 || snap.StreamFrames != 15 {
		t.Fatalf("snapshot counters: %+v", snap)
	}
	if !snap.Identified || snap.VBName != "flat" {
		t.Fatalf("identification did not cross the wire: %+v", snap)
	}
	if snap.Coverage <= 0 || snap.Coverage > 1 {
		t.Fatalf("coverage fraction out of range: %v", snap.Coverage)
	}
	ckpt, err := cl.Checkpoint(spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpt) == 0 || string(ckpt[:4]) != "BBCK" {
		t.Fatalf("checkpoint bytes do not start with BBCK container magic: %d bytes", len(ckpt))
	}
	st, err := cl.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 1 || len(st.Shards[0].Sess) != 1 || st.Shards[0].Sess[0].ID != spec.ID {
		t.Fatalf("status: %+v", st)
	}
	if err := cl.CloseSession(spec.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Snapshot(spec.ID); !errors.As(err, &remote) || remote.Code != CodeNoSession {
		t.Fatalf("snapshot after close: %v", err)
	}
}

func TestRingStability(t *testing.T) {
	shards := []string{"10.0.0.1:9", "10.0.0.2:9", "10.0.0.3:9"}
	r := NewRing(shards, 0)
	counts := map[string]int{}
	moved := 0
	const n = 1000
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("sess-%04d", i)
		a := r.Lookup(id)
		counts[a]++
		// Removing one shard must only remap the ids it owned.
		b := r.LookupSkip(id, func(addr string) bool { return addr == shards[0] })
		if a != shards[0] && b != a {
			t.Fatalf("id %q moved %s -> %s though its shard survived", id, a, b)
		}
		if a == shards[0] {
			moved++
			if b == shards[0] {
				t.Fatalf("id %q still routed to a skipped shard", id)
			}
		}
	}
	for _, s := range shards {
		if counts[s] < n/10 {
			t.Fatalf("shard %s owns only %d/%d ids — ring badly unbalanced: %v", s, counts[s], n, counts)
		}
	}
	if moved == 0 {
		t.Fatal("no ids on the removed shard; distribution test is vacuous")
	}
	if got := NewRing(nil, 4).Lookup("x"); got != "" {
		t.Fatalf("empty ring lookup = %q", got)
	}
}

// TestFleetMigrationParity live-migrates a session between two shards
// at frame k — including k=5 inside the default identification window
// (pin at 10) — and requires the final checkpoint bytes to be
// bit-identical to an unmigrated single-manager run.
func TestFleetMigrationParity(t *testing.T) {
	const n = 20
	frames, sils := leakFrames(n)

	for _, k := range []int{2, 5, 12} {
		sA, sB := startShard(t), startShard(t)
		coord, err := NewCoordinator(CoordinatorConfig{Shards: []string{sA.addr, sB.addr}, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}

		id := fmt.Sprintf("migrate-%02d", k)
		spec := OpenSpec{ID: id, W: fw, H: fh, Seed: 1}

		// Unmigrated baseline on a plain manager.
		base := session.NewManager(session.Config{})
		bs, err := base.Open(id, fw, fh, fleetTestOptions(spec))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if err := bs.Feed(frames[i], sils[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := bs.Drain(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		want, err := bs.CheckpointBytes()
		if err != nil {
			t.Fatal(err)
		}
		base.Close()

		// Fleet leg: k frames on the source shard, migrate, rest on the
		// target.
		if err := coord.Open(spec); err != nil {
			t.Fatal(err)
		}
		src := coord.RouteOf(id)
		dst := sA.addr
		if src == sA.addr {
			dst = sB.addr
		}
		for i := 0; i < k; i++ {
			if err := coord.Feed(id, core.Frame{Img: frames[i], Oracle: sils[i]}); err != nil {
				t.Fatal(err)
			}
		}
		if err := coord.Migrate(id, dst); err != nil {
			t.Fatal(err)
		}
		if got := coord.RouteOf(id); got != dst {
			t.Fatalf("route after migrate = %s, want %s", got, dst)
		}
		if coord.Migrations() != 1 {
			t.Fatalf("migrations = %d", coord.Migrations())
		}
		snap, err := coord.Snapshot(id)
		if err != nil {
			t.Fatal(err)
		}
		if !snap.Restored || snap.StreamFrames != uint64(k) {
			t.Fatalf("post-migration snapshot: %+v", snap)
		}
		if k < 10 && snap.Identified {
			t.Fatalf("k=%d: identified before the window — test no longer exercises mid-window migration", k)
		}
		for i := k; i < n; i++ {
			if err := coord.Feed(id, core.Frame{Img: frames[i], Oracle: sils[i]}); err != nil {
				t.Fatal(err)
			}
		}
		if err := coord.Drain(id); err != nil {
			t.Fatal(err)
		}
		got, err := coord.Checkpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("k=%d: migrated checkpoint differs from unmigrated baseline (%d vs %d bytes)", k, len(got), len(want))
		}
		fin, err := coord.Snapshot(id)
		if err != nil {
			t.Fatal(err)
		}
		if !fin.Identified || fin.VBName != "flat" || fin.StreamFrames != n {
			t.Fatalf("k=%d: final snapshot: %+v", k, fin)
		}
		coord.Close()
	}
}

// pickIDs deterministically selects per ids per shard from a numbered
// id sequence.
func pickIDs(r *Ring, shards []string, per int) (ids []string, byShard map[string][]string) {
	byShard = map[string][]string{}
	for i := 0; len(ids) < per*len(shards) && i < 10000; i++ {
		id := fmt.Sprintf("sess-%03d", i)
		a := r.Lookup(id)
		if len(byShard[a]) < per {
			byShard[a] = append(byShard[a], id)
			ids = append(ids, id)
		}
	}
	return ids, byShard
}

// TestFleetShardLossRecovery kills one of two shards mid-feed under a
// deterministic fault-injected delivery schedule and requires the
// coordinator to re-resume the lost shard's sessions on the survivor
// bit-identically from the last replicated checkpoints, losing at most
// the frames fed since replication.
func TestFleetShardLossRecovery(t *testing.T) {
	const (
		total       = 12
		replicateAt = 7 // frames fed before the replication pull
		killAt      = 9 // frames fed when the shard dies
	)
	baseFrames, baseSils := leakFrames(total)

	// The delivery schedule the call actually experiences: seeded drops
	// and duplicates, identical for baseline and fleet legs.
	inj := faultinject.New(faultinject.Profile{Seed: 7, Drop: 0.15, Dup: 0.15})
	delivery := inj.Apply(baseFrames, baseSils)
	if len(delivery) < killAt+1 {
		t.Fatalf("delivery schedule too short (%d) for the kill point", len(delivery))
	}
	t.Logf("delivery schedule: %d frames from %d inputs (%v)", len(delivery), total, inj.Counters())

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

	ids, byShard := pickIDs(coord.ring, []string{sA.addr, sB.addr}, 2)
	if len(byShard[sA.addr]) != 2 || len(byShard[sB.addr]) != 2 {
		t.Fatalf("id selection did not cover both shards: %v", byShard)
	}

	// Baseline: one plain session fed the full delivery schedule.
	spec0 := OpenSpec{W: fw, H: fh, Seed: 1}
	base := session.NewManager(session.Config{})
	defer base.Close()
	bs, err := base.Open("baseline", fw, fh, fleetTestOptions(spec0))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range delivery {
		if err := bs.Feed(d.Img, d.Oracle); err != nil {
			t.Fatal(err)
		}
	}
	if err := bs.Drain(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	wantFinal, err := bs.CheckpointBytes()
	if err != nil {
		t.Fatal(err)
	}

	feed := func(id string, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := coord.Feed(id, core.Frame{Img: delivery[i].Img, Oracle: delivery[i].Oracle}); err != nil {
				t.Fatalf("feed %s[%d]: %v", id, i, err)
			}
		}
	}

	for _, id := range ids {
		if err := coord.Open(OpenSpec{ID: id, W: fw, H: fh, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		feed(id, 0, replicateAt)
		if err := coord.Drain(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := coord.Replicate(); err != nil {
		t.Fatal(err)
	}
	saved := map[string][]byte{}
	for _, id := range ids {
		b, err := store.Load(id)
		if err != nil {
			t.Fatalf("replicated checkpoint missing for %s: %v", id, err)
		}
		saved[id] = b
	}

	// Frames fed after the last replication — the at-risk window.
	for _, id := range ids {
		feed(id, replicateAt, killAt)
	}
	for _, id := range byShard[sB.addr] {
		if err := coord.Drain(id); err != nil {
			t.Fatal(err)
		}
	}

	// Kill shard A mid-feed: listener and every live connection drop.
	sA.ln.Kill()

	// The next routed request to a lost session triggers recovery of
	// every session the shard owned — and itself succeeds via retry.
	snap, err := coord.Snapshot(byShard[sA.addr][0])
	if err != nil {
		t.Fatalf("snapshot across shard loss: %v", err)
	}
	if !snap.Restored || snap.StreamFrames != replicateAt {
		t.Fatalf("recovered snapshot: %+v (want restored at %d frames)", snap, replicateAt)
	}
	if down := coord.Down(); len(down) != 1 || down[0] != sA.addr {
		t.Fatalf("down = %v, want [%s]", down, sA.addr)
	}
	resumed, reopened, failed := coord.Recoveries()
	if resumed != 2 || reopened != 0 || failed != 0 {
		t.Fatalf("recoveries = (%d resumed, %d reopened, %d failed), want (2, 0, 0)", resumed, reopened, failed)
	}

	// Bit-identical recovery: the re-resumed sessions' checkpoint bytes
	// must equal the replicated .bbck they were resumed from.
	for _, id := range byShard[sA.addr] {
		if coord.RouteOf(id) != sB.addr {
			t.Fatalf("session %s not re-routed to survivor", id)
		}
		got, err := coord.Checkpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, saved[id]) {
			t.Fatalf("session %s: recovered state not bit-identical to replicated checkpoint", id)
		}
	}

	// Every session lost at most the frames since its last checkpoint:
	// survivors kept all killAt frames, recovered sessions rewound to
	// replicateAt. Refeed the gap and finish the call everywhere.
	for _, id := range ids {
		snap, err := coord.Snapshot(id)
		if err != nil {
			t.Fatal(err)
		}
		wantFloor := uint64(killAt)
		if coord.RouteOf(id) == sB.addr && snap.Restored {
			wantFloor = replicateAt
		}
		if snap.StreamFrames != wantFloor {
			t.Fatalf("session %s at %d frames, want %d", id, snap.StreamFrames, wantFloor)
		}
		feed(id, int(snap.StreamFrames), len(delivery))
		if err := coord.Drain(id); err != nil {
			t.Fatal(err)
		}
		final, err := coord.Checkpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(final, wantFinal) {
			t.Fatalf("session %s: post-recovery replay diverged from baseline (%d vs %d bytes)", id, len(final), len(wantFinal))
		}
	}

	st := coord.Status()
	open := 0
	for _, row := range st.Shards {
		open += len(row.Sess)
	}
	if open != 4 {
		t.Fatalf("aggregate status after recovery: %+v", st)
	}
}

// TestFleetPartitionedCoordinator severs the coordinator's
// connectivity to one shard whose manager keeps running: the
// coordinator must route around it (re-resuming its sessions on the
// survivor), while the old shard keeps its now-orphaned incarnation —
// the documented split-brain the partition matrix accepts (DESIGN.md
// §15).
func TestFleetPartitionedCoordinator(t *testing.T) {
	const pre = 5
	frames, sils := leakFrames(pre + 3)
	sA, sB := startShard(t), startShard(t)
	store := session.NewMemStore()
	coord, err := NewCoordinator(CoordinatorConfig{Shards: []string{sA.addr, sB.addr}, Store: store, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	_, byShard := pickIDs(coord.ring, []string{sA.addr, sB.addr}, 1)
	idA, idB := byShard[sA.addr][0], byShard[sB.addr][0]
	for _, id := range []string{idA, idB} {
		if err := coord.Open(OpenSpec{ID: id, W: fw, H: fh, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < pre; i++ {
			if err := coord.Feed(id, core.Frame{Img: frames[i], Oracle: sils[i]}); err != nil {
				t.Fatal(err)
			}
		}
		if err := coord.Drain(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := coord.Replicate(); err != nil {
		t.Fatal(err)
	}

	// Partition: connections and listener die; shard A's manager lives.
	sA.ln.Kill()

	// Feeding idA now must succeed — recovered onto B behind the scenes.
	if err := coord.Feed(idA, core.Frame{Img: frames[pre], Oracle: sils[pre]}); err != nil {
		t.Fatalf("feed across partition: %v", err)
	}
	if got := coord.RouteOf(idA); got != sB.addr {
		t.Fatalf("idA routed to %s, want survivor %s", got, sB.addr)
	}
	if err := coord.Drain(idA); err != nil {
		t.Fatal(err)
	}
	snap, err := coord.Snapshot(idA)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Restored || snap.StreamFrames != pre+1 {
		t.Fatalf("recovered idA snapshot: %+v", snap)
	}

	// Split brain: the partitioned shard still runs its incarnation.
	if orphan, ok := sA.mgr.Get(idA); !ok {
		t.Fatal("partitioned shard lost its session — expected a live orphan incarnation")
	} else if orphan.Stats().StreamFrames != pre {
		t.Fatalf("orphan incarnation at %d frames, want %d", orphan.Stats().StreamFrames, pre)
	}

	// The unaffected session never noticed.
	snapB, err := coord.Snapshot(idB)
	if err != nil {
		t.Fatal(err)
	}
	if snapB.Restored || snapB.StreamFrames != pre {
		t.Fatalf("idB snapshot: %+v", snapB)
	}
}

// TestCoordinatorWireFacade drives a coordinator through its own
// served wire endpoint (bgbuster serve topology: client -> coordinator
// -> shard).
func TestCoordinatorWireFacade(t *testing.T) {
	sh := startShard(t)
	coord, err := NewCoordinator(CoordinatorConfig{Shards: []string{sh.addr}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); Serve(ln, coord, Limits{}, t.Logf) }()
	t.Cleanup(func() { ln.Close(); <-done })

	cl, err := Dial(ln.Addr().String(), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	spec := OpenSpec{ID: "via-coord", W: fw, H: fh, Seed: 1}
	if err := cl.Open(spec); err != nil {
		t.Fatal(err)
	}
	frames, sils := leakFrames(3)
	for i := range frames {
		if err := cl.Feed(spec.ID, core.Frame{Img: frames[i], Oracle: sils[i]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Drain(spec.ID); err != nil {
		t.Fatal(err)
	}
	snap, err := cl.Snapshot(spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if snap.StreamFrames != 3 {
		t.Fatalf("snapshot via coordinator endpoint: %+v", snap)
	}
	var remote *RemoteError
	if _, err := cl.Snapshot("nope"); !errors.As(err, &remote) || remote.Code != CodeNoSession {
		t.Fatalf("error code did not survive the double hop: %v", err)
	}
	if err := cl.CloseSession(spec.ID); err != nil {
		t.Fatal(err)
	}
}

// TestServeUnblocksIdleConnsOnClose pins the shutdown contract: a
// coordinator parks idle persistent clients in ReadMessage, and a
// SIGTERM'd shard must not wait on them — closing the listener has to
// unwind every open connection so Serve can return. (Found live: a
// shard with one idle coordinator connection hung forever after its
// listener closed.)
func TestServeUnblocksIdleConnsOnClose(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mgr := session.NewManager(session.Config{})
	defer mgr.Close()
	sh, err := NewShard(ShardConfig{Manager: mgr, OptionsFor: fleetTestOptions, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); sh.Serve(ln) }()

	// An idle persistent connection, parked between requests — the
	// exact state a coordinator's cached client sits in.
	cl, err := Dial(ln.Addr().String(), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}

	ln.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve still blocked on an idle connection 5s after listener close")
	}
}

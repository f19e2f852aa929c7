package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bgbuster/bgbuster/internal/core"
	"github.com/bgbuster/bgbuster/internal/session"
)

// shortTimeouts keeps deadline-expiry tests fast.
func shortTimeouts() Timeouts {
	return Timeouts{Dial: 2 * time.Second, Read: 250 * time.Millisecond, Write: 2 * time.Second}
}

// dialWith is a CoordinatorConfig.Dial opening shard clients under t.
func dialWith(t Timeouts) func(string, Limits) (*Client, error) {
	return func(addr string, lim Limits) (*Client, error) { return DialTimeouts(addr, lim, t) }
}

// checkPlacement holds c.mu and asserts the placement rules every route
// write keeps: outside a migration no pin equals its session's ring
// home (settleLocked's rule), every pin names a shard record that is
// not down, and every draining record has a session pinned to it
// (reapDrainedLocked's rule).
func checkPlacement(t *testing.T, c *Coordinator) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	pinned := map[string]bool{}
	for id, p := range c.sessions {
		if p.pin == "" {
			continue
		}
		pinned[p.pin] = true
		if p.gate == nil && p.pin == c.homeLocked(id) {
			t.Fatalf("session %q is pinned to its ring home %s", id, p.pin)
		}
		if s := c.shards[p.pin]; s == nil || s.role == RoleDown {
			t.Fatalf("session %q is pinned to %s, which is down or not a member", id, p.pin)
		}
	}
	for a, s := range c.shards {
		if s.role == RoleDraining && !pinned[a] {
			t.Fatalf("draining shard %s has no session pinned to it", a)
		}
	}
}

// --- meta blob -------------------------------------------------------

func TestFleetMetaRoundTrip(t *testing.T) {
	m := fleetMeta{
		Epoch:   7,
		Vnodes:  32,
		Members: []string{"10.0.0.1:7000", "10.0.0.2:7000"},
		Specs: []OpenSpec{
			{ID: "call-a", W: 64, H: 48, Seed: 3},
			{ID: "call-b", W: 32, H: 32, UnknownVB: true, Seed: -1},
		},
	}
	blob, err := encodeMeta(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeMeta(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != m.Epoch || got.Vnodes != m.Vnodes ||
		len(got.Members) != 2 || got.Members[1] != "10.0.0.2:7000" ||
		len(got.Specs) != 2 || got.Specs[1] != m.Specs[1] {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}

	// A flipped byte must fail the CRC, anywhere in the blob.
	for _, off := range []int{0, 5, len(blob) / 2, len(blob) - 1} {
		bad := append([]byte(nil), blob...)
		bad[off] ^= 0x40
		if _, err := decodeMeta(bad); err == nil {
			t.Fatalf("corruption at offset %d accepted", off)
		}
	}
	// Truncations must be rejected, never panic.
	for n := 0; n < len(blob); n++ {
		if _, err := decodeMeta(blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

// --- health-probed routing ------------------------------------------

// stallListener wraps a listener so a test can freeze the shard the
// way an asymmetric partition or a livelocked process would: accepted
// connections stop delivering requests (so the shard never answers)
// while the TCP peer stays connected — only client deadlines notice.
type stallListener struct {
	net.Listener
	stalled atomic.Bool
	unblock chan struct{}
}

func (l *stallListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &stallConn{Conn: c, l: l}, nil
}

type stallConn struct {
	net.Conn
	l *stallListener
}

func (c *stallConn) Read(b []byte) (int, error) {
	for {
		if c.l.stalled.Load() {
			<-c.l.unblock
			return 0, net.ErrClosed
		}
		n, err := c.Conn.Read(b)
		// A read that was already in flight when the stall hit must not
		// deliver — swallow the bytes so the shard never sees the
		// request and the client's deadline is the only thing that fires.
		if c.l.stalled.Load() && err == nil {
			continue
		}
		return n, err
	}
}

// startStallShard boots a shard behind a stallListener.
func startStallShard(t *testing.T) (*testShard, *stallListener) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sl := &stallListener{Listener: ln, unblock: make(chan struct{})}
	mgr := session.NewManager(session.Config{})
	sh, err := NewShard(ShardConfig{Manager: mgr, OptionsFor: fleetTestOptions, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := &testShard{addr: ln.Addr().String(), mgr: mgr, done: make(chan struct{})}
	go func() {
		defer close(ts.done)
		sh.Serve(sl)
	}()
	t.Cleanup(func() {
		sl.stalled.Store(false)
		close(sl.unblock)
		sl.Close()
		<-ts.done
		mgr.Close()
	})
	return ts, sl
}

// TestClientFeedTimeout: a request into a stalled shard surfaces a
// *TimeoutError naming the op within its read deadline, never wedging
// the caller.
func TestClientFeedTimeout(t *testing.T) {
	frames, sils := leakFrames(1)
	sA, stall := startStallShard(t)
	to := shortTimeouts()
	cl, err := DialTimeouts(sA.addr, Limits{}, to)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Open(OpenSpec{ID: "x", W: fw, H: fh, Seed: 1}); err != nil {
		t.Fatal(err)
	}

	stall.stalled.Store(true)
	start := time.Now()
	ferr := cl.Feed("x", core.Frame{Img: frames[0], Oracle: sils[0]})
	elapsed := time.Since(start)
	var te *TimeoutError
	if !errors.As(ferr, &te) {
		t.Fatalf("feed into a stalled shard = %v, want *TimeoutError", ferr)
	}
	if te.Op != "request 0x02 read" || te.After != to.Read {
		t.Fatalf("timeout op %q after %v, want %q after %v", te.Op, te.After, "request 0x02 read", to.Read)
	}
	if elapsed > to.Read+time.Second {
		t.Fatalf("feed blocked %v past a %v read deadline", elapsed, to.Read)
	}
}

// TestFleetHealthProbeAndTimeout: a deadline miss is shard loss like
// any other transport failure. A feed into a stalled shard marks it
// down, recovers the session onto the survivor from its replicated
// checkpoint and delivers the frame there — one call, bounded by the
// deadline plus the recovery, with the frame applied exactly once to
// the copy the fleet keeps.
func TestFleetHealthProbeAndTimeout(t *testing.T) {
	frames, sils := leakFrames(3)
	sA, stall := startStallShard(t)
	sB := startShard(t)
	store := session.NewMemStore()
	coord, err := NewCoordinator(CoordinatorConfig{
		Shards: []string{sA.addr, sB.addr}, Store: store,
		Dial: dialWith(shortTimeouts()), Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	_, byShard := pickIDs(coord.ring, []string{sA.addr, sB.addr}, 1)
	id := byShard[sA.addr][0]
	if err := coord.Open(OpenSpec{ID: id, W: fw, H: fh, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := coord.Feed(id, core.Frame{Img: frames[0], Oracle: sils[0]}); err != nil {
		t.Fatal(err)
	}
	if err := coord.Drain(id); err != nil {
		t.Fatal(err)
	}
	if err := coord.Replicate(); err != nil {
		t.Fatal(err)
	}
	checkPlacement(t, coord)
	if st := coord.Status(); st.Epoch != 1 {
		t.Fatalf("fresh coordinator epoch = %d, want 1", st.Epoch)
	}

	stall.stalled.Store(true)
	start := time.Now()
	if err := coord.Feed(id, core.Frame{Img: frames[1], Oracle: sils[1]}); err != nil {
		t.Fatalf("feed into a stalled shard: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("feed blocked %v past a 250ms read deadline plus recovery", elapsed)
	}
	if down := coord.Down(); len(down) != 1 || down[0] != sA.addr {
		t.Fatalf("down = %v, want [%s]", down, sA.addr)
	}
	checkPlacement(t, coord)
	if got := coord.RouteOf(id); got != sB.addr {
		t.Fatalf("session routed to %s after recovery, want %s", got, sB.addr)
	}
	if resumed, reopened, failed := coord.Recoveries(); resumed != 1 || reopened != 0 || failed != 0 {
		t.Fatalf("recoveries = %d resumed, %d reopened, %d failed; want 1, 0, 0", resumed, reopened, failed)
	}
	// The survivor keeps feeding, and holds every frame exactly once.
	if err := coord.Feed(id, core.Frame{Img: frames[2], Oracle: sils[2]}); err != nil {
		t.Fatal(err)
	}
	if err := coord.Drain(id); err != nil {
		t.Fatal(err)
	}
	snap, err := coord.Snapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.StreamFrames != 3 {
		t.Fatalf("survivor holds %d frames, want 3", snap.StreamFrames)
	}
	checkPlacement(t, coord)
}

// TestFleetProbeOnce drives the probe loop by hand: a stalled shard's
// first probe timeout is shard loss, so the shard goes down and its
// sessions move before any client request notices.
func TestFleetProbeOnce(t *testing.T) {
	frames, sils := leakFrames(2)
	sA, stall := startStallShard(t)
	sB := startShard(t)
	coord, err := NewCoordinator(CoordinatorConfig{
		Shards: []string{sA.addr, sB.addr}, Store: session.NewMemStore(),
		Dial: dialWith(shortTimeouts()), Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	_, byShard := pickIDs(coord.ring, []string{sA.addr, sB.addr}, 1)
	id := byShard[sA.addr][0]
	if err := coord.Open(OpenSpec{ID: id, W: fw, H: fh, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := coord.Feed(id, core.Frame{Img: frames[0], Oracle: sils[0]}); err != nil {
		t.Fatal(err)
	}
	if err := coord.Drain(id); err != nil {
		t.Fatal(err)
	}
	if err := coord.Replicate(); err != nil {
		t.Fatal(err)
	}
	checkPlacement(t, coord)
	coord.ProbeOnce()
	checkPlacement(t, coord)
	if down := coord.Down(); len(down) != 0 {
		t.Fatalf("healthy probe marked %v down", down)
	}

	stall.stalled.Store(true)
	coord.ProbeOnce()
	checkPlacement(t, coord)
	if down := coord.Down(); len(down) != 1 || down[0] != sA.addr {
		t.Fatalf("down after one stalled probe = %v, want [%s]", down, sA.addr)
	}
	if got := coord.RouteOf(id); got != sB.addr {
		t.Fatalf("session routed to %s, want survivor %s", got, sB.addr)
	}
	// Recovery already happened behind the probe: feeding never blocks.
	if err := coord.Feed(id, core.Frame{Img: frames[1], Oracle: sils[1]}); err != nil {
		t.Fatalf("feed after probe-driven recovery: %v", err)
	}
	checkPlacement(t, coord)
}

// TestShardKeepsConnAfterBodyRejection: a request whose header is valid
// and whose body was read whole but fails to decode — here a batch over
// the shard's MaxBatch — is answered with CodeBadReq on a connection
// that stays open, so the coordinator's next request to the healthy
// shard succeeds and nothing is recovered.
func TestShardKeepsConnAfterBodyRejection(t *testing.T) {
	frames, sils := leakFrames(2)
	sA, sB := startShard(t), startShard(t)
	coord, err := NewCoordinator(CoordinatorConfig{
		Shards: []string{sA.addr, sB.addr}, Store: session.NewMemStore(), Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	const id = "x"
	if err := coord.Open(OpenSpec{ID: id, W: fw, H: fh, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	home := coord.RouteOf(id)

	batch := make([]core.Frame, DefaultLimits().MaxBatch+1)
	for i := range batch {
		batch[i] = core.Frame{Img: frames[0], Oracle: sils[0]}
	}
	var remote *RemoteError
	if err := coord.FeedN(id, batch); !errors.As(err, &remote) || remote.Code != CodeBadReq {
		t.Fatalf("oversized batch = %v, want a CodeBadReq *RemoteError", err)
	}
	if err := coord.Feed(id, core.Frame{Img: frames[1], Oracle: sils[1]}); err != nil {
		t.Fatalf("feed after a rejected batch: %v", err)
	}
	if got := coord.RouteOf(id); got != home {
		t.Fatalf("session moved %s -> %s after a rejected batch", home, got)
	}
	if down := coord.Down(); len(down) != 0 {
		t.Fatalf("a rejected batch marked %v down", down)
	}
	if resumed, reopened, failed := coord.Recoveries(); resumed+reopened+failed != 0 {
		t.Fatalf("recoveries = %d resumed, %d reopened, %d failed; want none", resumed, reopened, failed)
	}
}

// --- dynamic membership ---------------------------------------------

// TestFleetJoinMigratesOnlyMovedArcs grows a live fleet mid-meeting
// and checks the two-phase flip: every session keeps its exact frame
// schedule (bit-identical final checkpoints vs a single-manager
// baseline), only arc-moved sessions migrate, and the joined shard
// actually hosts them.
func TestFleetJoinMigratesOnlyMovedArcs(t *testing.T) {
	const total, joinAt, nSessions = 14, 6, 6
	frames, sils := leakFrames(total)
	sA, sB, sC := startShard(t), startShard(t), startShard(t)
	coord, err := NewCoordinator(CoordinatorConfig{
		Shards: []string{sA.addr, sB.addr}, Store: session.NewMemStore(), Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Baseline: one plain session per id fed the full schedule.
	spec0 := OpenSpec{W: fw, H: fh, Seed: 1}
	base := session.NewManager(session.Config{})
	defer base.Close()
	bs, err := base.Open("baseline", fw, fh, fleetTestOptions(spec0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		if err := bs.Feed(frames[i], sils[i]); err != nil {
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

	var ids []string
	for i := 0; i < nSessions; i++ {
		id := fmt.Sprintf("join-call-%02d", i)
		ids = append(ids, id)
		if err := coord.Open(OpenSpec{ID: id, W: fw, H: fh, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		for i := 0; i < joinAt; i++ {
			if err := coord.Feed(id, core.Frame{Img: frames[i], Oracle: sils[i]}); err != nil {
				t.Fatal(err)
			}
		}
	}

	checkPlacement(t, coord)

	// Predict which arcs move, then grow the ring.
	before := map[string]string{}
	for _, id := range ids {
		before[id] = coord.RouteOf(id)
	}
	grown := NewRing([]string{sA.addr, sB.addr, sC.addr}, 0)
	wantMoved := map[string]bool{}
	for _, id := range ids {
		if grown.Lookup(id) != before[id] {
			wantMoved[id] = true
		}
	}
	if err := coord.Join(sC.addr); err != nil {
		t.Fatalf("join: %v", err)
	}
	checkPlacement(t, coord)
	if got := coord.Members(); len(got) != 3 {
		t.Fatalf("members after join = %v", got)
	}
	moved := 0
	for _, id := range ids {
		now := coord.RouteOf(id)
		if wantMoved[id] {
			if now != sC.addr {
				t.Fatalf("moved-arc session %q routes to %s, want joined shard %s", id, now, sC.addr)
			}
			moved++
		} else if now != before[id] {
			t.Fatalf("unmoved-arc session %q migrated %s -> %s", id, before[id], now)
		}
	}
	if got := coord.Migrations(); got != uint64(moved) {
		t.Fatalf("join migrated %d sessions, want exactly the %d moved arcs", got, moved)
	}
	if joined, _ := coord.Rebalances(); joined != 1 {
		t.Fatalf("joins = %d, want 1", joined)
	}

	// The meeting continues; every session must land bit-identical.
	for _, id := range ids {
		for i := joinAt; i < total; i++ {
			if err := coord.Feed(id, core.Frame{Img: frames[i], Oracle: sils[i]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, id := range ids {
		if err := coord.Drain(id); err != nil {
			t.Fatal(err)
		}
		got, err := coord.Checkpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantFinal) {
			t.Fatalf("session %q checkpoint diverged from baseline after join rebalance", id)
		}
	}
	checkPlacement(t, coord)
}

// TestFleetDrainShard removes a live shard gracefully mid-meeting: its
// sessions migrate off with bit-identical state, the shard ends empty,
// and the guard rails (unknown member, last shard) hold.
func TestFleetDrainShard(t *testing.T) {
	const total, drainAt = 12, 5
	frames, sils := leakFrames(total)
	sA, sB, sC := startShard(t), startShard(t), startShard(t)
	coord, err := NewCoordinator(CoordinatorConfig{
		Shards: []string{sA.addr, sB.addr, sC.addr}, Store: session.NewMemStore(), Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	spec0 := OpenSpec{W: fw, H: fh, Seed: 1}
	base := session.NewManager(session.Config{})
	defer base.Close()
	bs, err := base.Open("baseline", fw, fh, fleetTestOptions(spec0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		if err := bs.Feed(frames[i], sils[i]); err != nil {
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

	ids, byShard := pickIDs(coord.ring, []string{sA.addr, sB.addr, sC.addr}, 2)
	for _, id := range ids {
		if err := coord.Open(OpenSpec{ID: id, W: fw, H: fh, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < drainAt; i++ {
			if err := coord.Feed(id, core.Frame{Img: frames[i], Oracle: sils[i]}); err != nil {
				t.Fatal(err)
			}
		}
	}

	if err := coord.DrainShard("127.0.0.1:1"); err == nil {
		t.Fatal("draining a non-member succeeded")
	}
	checkPlacement(t, coord)
	if err := coord.DrainShard(sA.addr); err != nil {
		t.Fatalf("drain: %v", err)
	}
	checkPlacement(t, coord)
	if got := coord.Members(); len(got) != 2 {
		t.Fatalf("members after drain = %v", got)
	}
	for _, id := range byShard[sA.addr] {
		if got := coord.RouteOf(id); got == sA.addr || got == "" {
			t.Fatalf("session %q still routed to the drained shard (%q)", id, got)
		}
	}
	if open := sA.mgr.Stats().Open; open != 0 {
		t.Fatalf("drained shard still hosts %d sessions", open)
	}

	for _, id := range ids {
		for i := drainAt; i < total; i++ {
			if err := coord.Feed(id, core.Frame{Img: frames[i], Oracle: sils[i]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, id := range ids {
		if err := coord.Drain(id); err != nil {
			t.Fatal(err)
		}
		got, err := coord.Checkpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantFinal) {
			t.Fatalf("session %q checkpoint diverged from baseline after shard drain", id)
		}
	}

	// Guard rail: the fleet never drains itself to zero.
	if err := coord.DrainShard(sB.addr); err != nil {
		t.Fatal(err)
	}
	checkPlacement(t, coord)
	if err := coord.DrainShard(sC.addr); err == nil {
		t.Fatal("draining the last live shard succeeded")
	}
	checkPlacement(t, coord)
}

// TestJoinRestartedShardKeepsSessionsOpenedWhileDown restarts a lost
// shard at its old address and joins it back (what `bgbuster shard
// -join` does after a restart): a session opened while the shard was
// down lives on the survivor, its arc now points at the rejoined
// shard, and the join must migrate it there instead of re-routing it
// to a shard that never heard of it.
func TestJoinRestartedShardKeepsSessionsOpenedWhileDown(t *testing.T) {
	frames, sils := leakFrames(2)
	sA, sB := startShard(t), startShard(t)
	coord, err := NewCoordinator(CoordinatorConfig{
		Shards: []string{sA.addr, sB.addr}, Store: session.NewMemStore(),
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	sA.ln.Kill()
	coord.ProbeOnce()
	checkPlacement(t, coord)
	if down := coord.Down(); len(down) != 1 || down[0] != sA.addr {
		t.Fatalf("down = %v, want [%s]", down, sA.addr)
	}
	_, byShard := pickIDs(coord.ring, []string{sA.addr, sB.addr}, 1)
	id := byShard[sA.addr][0]
	if err := coord.Open(OpenSpec{ID: id, W: fw, H: fh, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	checkPlacement(t, coord)
	if got := coord.RouteOf(id); got != sB.addr {
		t.Fatalf("session opened while %s was down routes to %q, want %s", sA.addr, got, sB.addr)
	}
	if err := coord.Feed(id, core.Frame{Img: frames[0], Oracle: sils[0]}); err != nil {
		t.Fatal(err)
	}

	startShardAt(t, sA.addr)
	if err := coord.Join(sA.addr); err != nil {
		t.Fatalf("join restarted shard: %v", err)
	}
	checkPlacement(t, coord)
	if err := coord.Feed(id, core.Frame{Img: frames[1], Oracle: sils[1]}); err != nil {
		t.Fatalf("feed after rejoin: %v", err)
	}
	if err := coord.Drain(id); err != nil {
		t.Fatal(err)
	}
	snap, err := coord.Snapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.StreamFrames != 2 {
		t.Fatalf("session holds %d frames across the rejoin, want 2", snap.StreamFrames)
	}
	if got := coord.RouteOf(id); got != sA.addr {
		t.Fatalf("session routes to %s after rejoin, want its arc %s", got, sA.addr)
	}
}

// TestJoinRestartedShardTakesRecoveredSessionsHome: a session
// recovered onto the survivor after its shard died must not stay
// pinned there. When the restarted shard Joins, the session migrates
// back to its arc with every replicated frame.
func TestJoinRestartedShardTakesRecoveredSessionsHome(t *testing.T) {
	frames, sils := leakFrames(3)
	sA, sB := startShard(t), startShard(t)
	coord, err := NewCoordinator(CoordinatorConfig{
		Shards: []string{sA.addr, sB.addr}, Store: session.NewMemStore(),
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	_, byShard := pickIDs(coord.ring, []string{sA.addr, sB.addr}, 1)
	id := byShard[sA.addr][0]
	if err := coord.Open(OpenSpec{ID: id, W: fw, H: fh, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := coord.Feed(id, core.Frame{Img: frames[i], Oracle: sils[i]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := coord.Drain(id); err != nil {
		t.Fatal(err)
	}
	if err := coord.Replicate(); err != nil {
		t.Fatal(err)
	}
	checkPlacement(t, coord)

	sA.ln.Kill()
	coord.ProbeOnce()
	checkPlacement(t, coord)
	if got := coord.RouteOf(id); got != sB.addr {
		t.Fatalf("session routes to %q after %s died, want the survivor %s", got, sA.addr, sB.addr)
	}
	startShardAt(t, sA.addr)
	if err := coord.Join(sA.addr); err != nil {
		t.Fatalf("join restarted shard: %v", err)
	}
	checkPlacement(t, coord)
	if got := coord.RouteOf(id); got != sA.addr {
		t.Fatalf("recovered session routes to %q after rejoin, want its arc %s", got, sA.addr)
	}
	if err := coord.Feed(id, core.Frame{Img: frames[2], Oracle: sils[2]}); err != nil {
		t.Fatal(err)
	}
	if err := coord.Drain(id); err != nil {
		t.Fatal(err)
	}
	snap, err := coord.Snapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.StreamFrames != 3 {
		t.Fatalf("session holds %d frames after recovery and rejoin, want 3", snap.StreamFrames)
	}
}

// TestShardLossSettlesPinsOnOtherShards loses a shard twice around a
// Readmit. A session homed on A is recovered onto B, then pinned to B
// by A's probation; when A is lost again B is the session's ring home,
// so the pin must go, and the session must follow the ring back to A
// when A joins. The placement rules are checked after every step.
func TestShardLossSettlesPinsOnOtherShards(t *testing.T) {
	frames, sils := leakFrames(3)
	sA, sB := startShard(t), startShard(t)
	coord, err := NewCoordinator(CoordinatorConfig{
		Shards: []string{sA.addr, sB.addr}, Store: session.NewMemStore(),
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	_, byShard := pickIDs(coord.ring, []string{sA.addr, sB.addr}, 1)
	id := byShard[sA.addr][0]
	if err := coord.Open(OpenSpec{ID: id, W: fw, H: fh, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	feed := func(i int) {
		t.Helper()
		if err := coord.Feed(id, core.Frame{Img: frames[i], Oracle: sils[i]}); err != nil {
			t.Fatal(err)
		}
		if err := coord.Drain(id); err != nil {
			t.Fatal(err)
		}
		if err := coord.Replicate(); err != nil {
			t.Fatal(err)
		}
	}
	route := func(step, want string) {
		t.Helper()
		checkPlacement(t, coord)
		if got := coord.RouteOf(id); got != want {
			t.Fatalf("after %s the session routes to %q, want %s", step, got, want)
		}
	}
	feed(0)
	route("open", sA.addr)

	sA.ln.Kill()
	coord.ProbeOnce()
	route("the first loss of A", sB.addr)
	feed(1)

	restarted := startShardAt(t, sA.addr)
	if err := coord.Readmit(sA.addr); err != nil {
		t.Fatalf("readmit: %v", err)
	}
	route("readmitting A", sB.addr)

	restarted.ln.Kill()
	coord.ProbeOnce()
	route("the second loss of A", sB.addr)

	startShardAt(t, sA.addr)
	if err := coord.Join(sA.addr); err != nil {
		t.Fatalf("join restarted shard: %v", err)
	}
	route("A joins", sA.addr)
	feed(2)
	snap, err := coord.Snapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.StreamFrames != 3 {
		t.Fatalf("session holds %d frames after two losses and a join, want 3", snap.StreamFrames)
	}
}

// TestDrainShardEndsProbation drains a re-admitted shard before its
// promotion: the drained address must leave probation with it, and a
// later Promote of it must be refused.
func TestDrainShardEndsProbation(t *testing.T) {
	frames, sils := leakFrames(1)
	sA, sB := startShard(t), startShard(t)
	coord, err := NewCoordinator(CoordinatorConfig{
		Shards: []string{sA.addr, sB.addr}, Store: session.NewMemStore(),
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	sA.ln.Kill()
	coord.ProbeOnce()
	checkPlacement(t, coord)
	startShardAt(t, sA.addr)
	if err := coord.Readmit(sA.addr); err != nil {
		t.Fatalf("readmit: %v", err)
	}
	checkPlacement(t, coord)
	if p := coord.Probation(); len(p) != 1 || p[0] != sA.addr {
		t.Fatalf("probation = %v, want [%s]", p, sA.addr)
	}
	// A new session lands on the probation shard, then moves off with it.
	_, byShard := pickIDs(coord.ring, []string{sA.addr, sB.addr}, 1)
	id := byShard[sA.addr][0]
	if err := coord.Open(OpenSpec{ID: id, W: fw, H: fh, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	checkPlacement(t, coord)

	if err := coord.DrainShard(sA.addr); err != nil {
		t.Fatalf("drain probation shard: %v", err)
	}
	checkPlacement(t, coord)
	if p := coord.Probation(); len(p) != 0 {
		t.Fatalf("probation after drain = %v, want empty", p)
	}
	if err := coord.Promote(sA.addr); err == nil {
		t.Fatal("promoting a drained shard succeeded")
	}
	checkPlacement(t, coord)
	if got := coord.RouteOf(id); got != sB.addr {
		t.Fatalf("session routes to %q after drain, want %s", got, sB.addr)
	}
	if err := coord.Feed(id, core.Frame{Img: frames[0], Oracle: sils[0]}); err != nil {
		t.Fatalf("feed after drain: %v", err)
	}
}

// TestTransitionPinsEverySessionInPlace drives the membership
// transition from every shard role without a network: each legal
// operation must leave every session routed exactly where it lived
// (sessions whose placement moved are pinned there and returned for
// migration), migrating the returned set home must empty a draining
// shard, and an illegal operation must change nothing. The draining
// rows start from a drain whose migrations all failed; "lost-draining"
// is such a shard lost afterwards, whose address may Join again.
func TestTransitionPinsEverySessionInPlace(t *testing.T) {
	const target = "10.0.0.9:7601"
	live := []string{"10.0.0.1:7601", "10.0.0.2:7601", "10.0.0.3:7601"}
	const absent, lostDraining Role = 255, 254
	legal := map[shardOp][]Role{
		opJoin:      {absent, RoleDown, lostDraining},
		opSetWeight: {RoleActive, RoleProbation, RoleDown},
		opReadmit:   {RoleDown},
		opPromote:   {RoleProbation},
		opDrain:     {RoleActive, RoleProbation, RoleDown, RoleDraining},
	}
	roleName := func(r Role) string {
		switch r {
		case absent:
			return "absent"
		case lostDraining:
			return "lost-draining"
		}
		return r.String()
	}
	type row struct {
		op   shardOp
		from Role
	}
	var rows []row
	for op := range opNames {
		for _, from := range []Role{absent, RoleActive, RoleProbation, RoleDraining, lostDraining, RoleDown} {
			rows = append(rows, row{shardOp(op), from})
		}
	}
	for _, r := range rows {
		name := opNames[r.op] + "/from-" + roleName(r.from)
		t.Run(name, func(t *testing.T) {
			shards := live
			if r.from != absent {
				shards = append(append([]string(nil), live...), target)
			}
			c, err := NewCoordinator(CoordinatorConfig{Shards: shards, Vnodes: 16})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.mu.Lock()
			defer c.mu.Unlock()
			open := func(from, to int) {
				for i := from; i < to; i++ {
					id := fmt.Sprintf("call-%03d", i)
					c.sessions[id] = &placement{spec: OpenSpec{ID: id}}
					if i%9 == 0 { // an earlier migration's override
						c.sessions[id].pin = live[i%len(live)]
					}
				}
			}
			open(0, 200)
			// lose mirrors handleShardLoss + recoverSession: the shard
			// goes down and its sessions are re-pinned on survivors.
			lose := func(addr string) {
				var orphans []string
				for id := range c.sessions {
					if c.routeLocked(id) == addr {
						orphans = append(orphans, id)
					}
				}
				c.loseLocked(addr)
				for _, id := range orphans {
					c.sessions[id].pin = c.routeLocked(id)
				}
			}
			step := func(op shardOp) {
				t.Helper()
				if _, err := c.transitionLocked(op, target, 0); err != nil {
					t.Fatalf("setting up %s: %v", r.from, err)
				}
			}
			switch r.from {
			case RoleProbation:
				lose(target)
				step(opReadmit)
			case RoleDraining:
				step(opDrain)
			case lostDraining:
				step(opDrain)
				lose(target)
			case RoleDown:
				lose(target)
			}
			open(200, 300) // sessions opened while the shard is in its role

			routes := func() map[string]string {
				out := map[string]string{}
				for id := range c.sessions {
					out[id] = c.routeLocked(id)
				}
				return out
			}
			before := routes()
			roleBefore := Role(absent)
			if s := c.shards[target]; s != nil {
				roleBefore = s.role
			}
			migrate, err := c.transitionLocked(r.op, target, 3)
			ok := slices.Contains(legal[r.op], r.from)
			if (err == nil) != ok {
				t.Fatalf("%s from %s: err = %v, want legal=%v", opNames[r.op], name, err, ok)
			}
			after := routes()
			for id, was := range before {
				if after[id] != was {
					t.Fatalf("session %q moved %s -> %s (returned for migration: %v)",
						id, was, after[id], slices.Contains(migrate, id))
				}
			}
			if !ok {
				if s := c.shards[target]; (s == nil) != (roleBefore == absent) || (s != nil && s.role != roleBefore) || len(migrate) != 0 {
					t.Fatalf("refused %s changed the shard record or returned %d ids", opNames[r.op], len(migrate))
				}
				return
			}
			// Phase 2: every returned session migrates to its ring home.
			for _, id := range migrate {
				c.settleLocked(c.sessions[id], id, c.homeLocked(id))
			}
			for id := range c.sessions {
				if c.routeLocked(id) == "" {
					t.Fatalf("session %q has no route after %s", id, opNames[r.op])
				}
				if r.op == opDrain && c.routeLocked(id) == target {
					t.Fatalf("session %q still lives on the drained shard", id)
				}
			}
		})
	}
}

// --- quorum replication through the coordinator ----------------------

// deadStore is a checkpoint replica that lost its disk.
type deadStore struct{}

var errDeadStore = errors.New("replica store dead")

func (deadStore) Save(string, []byte) error   { return errDeadStore }
func (deadStore) Load(string) ([]byte, error) { return nil, errDeadStore }
func (deadStore) List() ([]string, error)     { return nil, errDeadStore }
func (deadStore) Delete(string) error         { return errDeadStore }

// TestFleetQuorumReplication replicates checkpoints W-of-N with one
// dead replica, kills a shard, and requires recovery to read back from
// a surviving replica — the weakened-durability path Replicate exists
// to bound.
func TestFleetQuorumReplication(t *testing.T) {
	const pre = 5
	frames, sils := leakFrames(pre + 3)
	sA, sB := startShard(t), startShard(t)
	stores := []session.CheckpointStore{session.NewMemStore(), deadStore{}, session.NewMemStore()}
	coord, err := NewCoordinator(CoordinatorConfig{
		Shards: []string{sA.addr, sB.addr},
		Stores: stores, ReplicaFactor: 3, WriteQuorum: 2,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	_, byShard := pickIDs(coord.ring, []string{sA.addr, sB.addr}, 1)
	id := byShard[sA.addr][0]
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
	// 2-of-3 replicas accept the write; the dead one is absorbed.
	if err := coord.Replicate(); err != nil {
		t.Fatalf("replicate with one dead replica: %v", err)
	}
	checkPlacement(t, coord)

	sA.ln.Kill()
	if err := coord.Feed(id, core.Frame{Img: frames[pre], Oracle: sils[pre]}); err != nil {
		t.Fatalf("feed across shard loss with quorum store: %v", err)
	}
	checkPlacement(t, coord)
	if resumed, reopened, _ := coord.Recoveries(); resumed != 1 || reopened != 0 {
		t.Fatalf("recoveries = (%d resumed, %d reopened), want a checkpoint resume", resumed, reopened)
	}
}

// --- coordinator failover --------------------------------------------

// TestFleetCoordinatorFailover deposes a live coordinator: a standby
// takes over from the replicated stores at a higher epoch, the shards
// fence the old coordinator's mutations (CodeFenced -> ErrDeposed),
// and the meeting finishes bit-identical under the successor — with
// one shard killed between the two reigns to force takeover-time
// recovery from a surviving replica.
func TestFleetCoordinatorFailover(t *testing.T) {
	const total, failAt = 12, 5
	frames, sils := leakFrames(total)
	sA, sB := startShard(t), startShard(t)
	stores := []session.CheckpointStore{session.NewMemStore(), session.NewMemStore(), session.NewMemStore()}

	mk := func() (*Coordinator, error) {
		return NewCoordinator(CoordinatorConfig{
			Shards: []string{sA.addr, sB.addr},
			Stores: stores, ReplicaFactor: 3, WriteQuorum: 2,
			Logf: t.Logf,
		})
	}
	c1, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	spec0 := OpenSpec{W: fw, H: fh, Seed: 1}
	base := session.NewManager(session.Config{})
	defer base.Close()
	bs, err := base.Open("baseline", fw, fh, fleetTestOptions(spec0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		if err := bs.Feed(frames[i], sils[i]); err != nil {
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

	ids, byShard := pickIDs(c1.ring, []string{sA.addr, sB.addr}, 1)
	for _, id := range ids {
		if err := c1.Open(OpenSpec{ID: id, W: fw, H: fh, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < failAt; i++ {
			if err := c1.Feed(id, core.Frame{Img: frames[i], Oracle: sils[i]}); err != nil {
				t.Fatal(err)
			}
		}
		if err := c1.Drain(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := c1.Replicate(); err != nil {
		t.Fatal(err)
	}
	checkPlacement(t, c1)

	// The old coordinator "freezes" (partitioned from its operator, not
	// its shards); one of the shards dies in the gap.
	sA.ln.Kill()

	c2, err := TakeOver(CoordinatorConfig{
		Stores: stores, ReplicaFactor: 3, WriteQuorum: 2, Logf: t.Logf,
	})
	if err != nil {
		t.Fatalf("takeover: %v", err)
	}
	defer c2.Close()
	checkPlacement(t, c2)
	if c2.Epoch() != 2 {
		t.Fatalf("successor epoch = %d, want 2", c2.Epoch())
	}
	idA, idB := byShard[sA.addr][0], byShard[sB.addr][0]
	if got := c2.RouteOf(idA); got != sB.addr {
		t.Fatalf("dead shard's session routed to %q, want survivor %s", got, sB.addr)
	}
	if got := c2.RouteOf(idB); got != sB.addr {
		t.Fatalf("surviving session routed to %q, want its home %s", got, sB.addr)
	}
	if resumed, reopened, failed := c2.Recoveries(); resumed != 1 || reopened != 0 || failed != 0 {
		t.Fatalf("takeover recoveries = (%d, %d, %d), want exactly one checkpoint resume", resumed, reopened, failed)
	}

	// The deposed coordinator's mutations die at the shard fence.
	ferr := c1.Feed(idB, core.Frame{Img: frames[failAt], Oracle: sils[failAt]})
	if !errors.Is(ferr, ErrDeposed) {
		var remote *RemoteError
		if !errors.As(ferr, &remote) || remote.Code != CodeFenced {
			t.Fatalf("deposed coordinator's feed = %v, want fencing rejection", ferr)
		}
	}
	if !c1.Deposed() {
		t.Fatal("old coordinator does not know it is deposed")
	}
	if jerr := c1.Join("127.0.0.1:9"); !errors.Is(jerr, ErrDeposed) {
		t.Fatalf("deposed coordinator's join = %v, want ErrDeposed", jerr)
	}

	// The successor finishes the meeting bit-identically.
	for _, id := range ids {
		for i := failAt; i < total; i++ {
			if err := c2.Feed(id, core.Frame{Img: frames[i], Oracle: sils[i]}); err != nil {
				t.Fatalf("successor feed %s[%d]: %v", id, i, err)
			}
		}
	}
	for _, id := range ids {
		if err := c2.Drain(id); err != nil {
			t.Fatal(err)
		}
		got, err := c2.Checkpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantFinal) {
			t.Fatalf("session %q checkpoint diverged from baseline across failover", id)
		}
	}
	checkPlacement(t, c2)
}

// TestTakeOverSettlesFoundSessions: a successor coordinator settles
// each session where it finds it, pinning it only off its ring home,
// so a later Join moves every session the grown ring homes on the new
// shard there.
func TestTakeOverSettlesFoundSessions(t *testing.T) {
	const nSessions = 40
	sA, sB, sC := startShard(t), startShard(t), startShard(t)
	store := session.NewMemStore()
	c1, err := NewCoordinator(CoordinatorConfig{
		Shards: []string{sA.addr, sB.addr}, Store: store, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	var ids []string
	for i := 0; i < nSessions; i++ {
		id := fmt.Sprintf("takeover-call-%02d", i)
		ids = append(ids, id)
		if err := c1.Open(OpenSpec{ID: id, W: fw, H: fh, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	checkPlacement(t, c1)

	c2, err := TakeOver(CoordinatorConfig{Store: store, Logf: t.Logf})
	if err != nil {
		t.Fatalf("takeover: %v", err)
	}
	defer c2.Close()
	checkPlacement(t, c2)
	if err := c2.Join(sC.addr); err != nil {
		t.Fatalf("join after takeover: %v", err)
	}
	checkPlacement(t, c2)

	c2.mu.Lock()
	defer c2.mu.Unlock()
	homed := 0
	for _, id := range ids {
		if p := c2.sessions[id]; p.pin != "" {
			t.Errorf("session %q is pinned to %s after takeover and join", id, p.pin)
		}
		if c2.homeLocked(id) == sC.addr {
			homed++
			if got := c2.routeLocked(id); got != sC.addr {
				t.Errorf("session %q is homed on the joined shard %s but routes to %s", id, sC.addr, got)
			}
		}
	}
	if homed == 0 {
		t.Fatal("the grown ring homes no session on the joined shard")
	}
	if open := sC.mgr.Stats().Open; open != homed {
		t.Fatalf("joined shard hosts %d sessions, want the %d the ring homes there", open, homed)
	}
}

// TestFleetTakeOverRequiresMeta: a store with no BBFM blob cannot be
// taken over from.
func TestFleetTakeOverRequiresMeta(t *testing.T) {
	if _, err := TakeOver(CoordinatorConfig{Store: session.NewMemStore()}); !errors.Is(err, ErrNoMeta) {
		t.Fatalf("takeover from an empty store = %v, want ErrNoMeta", err)
	}
	if _, err := TakeOver(CoordinatorConfig{}); err == nil {
		t.Fatal("takeover without any store succeeded")
	}
}

// TestTakeOverReadErrorIsNotFirstBoot requires ErrNoMeta only when every
// replica reports the meta missing: a replica that fails to read it
// must fail the takeover instead of passing for a first boot, whose
// fresh coordinator would forget every session.
func TestTakeOverReadErrorIsNotFirstBoot(t *testing.T) {
	missingEverywhere, err := session.NewQuorumStore([]session.CheckpointStore{session.NewMemStore(), session.NewMemStore()}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TakeOver(CoordinatorConfig{Store: missingEverywhere}); !errors.Is(err, ErrNoMeta) {
		t.Fatalf("takeover with the meta missing on every replica = %v, want ErrNoMeta", err)
	}
	for name, stores := range map[string][]session.CheckpointStore{
		"every replica broken":    {deadStore{}, deadStore{}},
		"one missing, one broken": {session.NewMemStore(), deadStore{}},
	} {
		qs, err := session.NewQuorumStore(stores, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := TakeOver(CoordinatorConfig{Store: qs}); err == nil || errors.Is(err, ErrNoMeta) {
			t.Fatalf("%s: takeover = %v, want a read error that is not ErrNoMeta", name, err)
		}
	}
	if _, err := TakeOver(CoordinatorConfig{Store: deadStore{}}); err == nil || errors.Is(err, ErrNoMeta) {
		t.Fatalf("takeover from a broken store = %v, want a read error that is not ErrNoMeta", err)
	}
}

// TestDeposedCoordinatorWritesNoMeta: a coordinator deposed while a
// mutation was in flight must not overwrite its successor's fleet meta
// with its own stale session list.
func TestDeposedCoordinatorWritesNoMeta(t *testing.T) {
	store := session.NewMemStore()
	c, err := NewCoordinator(CoordinatorConfig{Shards: []string{"10.0.0.1:7601"}, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.saveMeta()
	before, err := store.Load(MetaKey)
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.sessions["call-a"] = &placement{spec: OpenSpec{ID: "call-a"}}
	c.mu.Unlock()
	c.Depose()
	c.saveMeta()
	if after, err := store.Load(MetaKey); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("deposed coordinator rewrote the fleet meta (err %v)", err)
	}
}

// newFailedDrain boots two shards and a coordinator with one session
// homed on sA. feed delivers frame i of three; failDrain drains sA
// while sB holds a session under the same id, so the one migration
// fails and rolls back, and returns that duplicate.
func newFailedDrain(t *testing.T) (coord *Coordinator, sA, sB *testShard, id string, feed func(i int), failDrain func() *session.Session) {
	t.Helper()
	frames, sils := leakFrames(3)
	sA, sB = startShard(t), startShard(t)
	coord, err := NewCoordinator(CoordinatorConfig{
		Shards: []string{sA.addr, sB.addr}, Store: session.NewMemStore(),
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	_, byShard := pickIDs(coord.ring, []string{sA.addr, sB.addr}, 1)
	id = byShard[sA.addr][0]
	spec := OpenSpec{ID: id, W: fw, H: fh, Seed: 1}
	if err := coord.Open(spec); err != nil {
		t.Fatal(err)
	}
	checkPlacement(t, coord)
	feed = func(i int) {
		t.Helper()
		if err := coord.Feed(id, core.Frame{Img: frames[i], Oracle: sils[i]}); err != nil {
			t.Fatalf("feed %d: %v", i, err)
		}
	}
	failDrain = func() *session.Session {
		t.Helper()
		dup, err := sB.mgr.Open(id, fw, fh, fleetTestOptions(spec))
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.DrainShard(sA.addr); err == nil {
			t.Fatal("drain with an unmovable session succeeded")
		}
		if got := coord.Members(); len(got) != 1 || got[0] != sB.addr {
			t.Fatalf("members after a failed drain = %v, want [%s]", got, sB.addr)
		}
		if got := coord.RouteOf(id); got != sA.addr {
			t.Fatalf("unmoved session routes to %q, want the draining shard %s", got, sA.addr)
		}
		if err := coord.Join(sA.addr); err == nil {
			t.Fatal("join of a shard that is still draining succeeded")
		}
		checkPlacement(t, coord)
		return dup
	}
	return coord, sA, sB, id, feed, failDrain
}

// TestStatusShowsDrainingShard: a session that a failed drain leaves on
// its draining shard is still routed and fed there, so the status
// snapshot must carry the draining shard's row with that session in it.
func TestStatusShowsDrainingShard(t *testing.T) {
	coord, sA, _, id, feed, failDrain := newFailedDrain(t)
	feed(0)
	failDrain().Close()
	feed(1)
	checkPlacement(t, coord)
	if err := coord.Drain(id); err != nil {
		t.Fatal(err)
	}
	var row *ShardStatus
	st := coord.Status()
	for i := range st.Shards {
		if st.Shards[i].Addr == sA.addr {
			row = &st.Shards[i]
		}
	}
	if row == nil || row.Role != RoleDraining || row.Err != "" {
		t.Fatalf("status rows %+v: no sampled draining row for %s", st.Shards, sA.addr)
	}
	if len(row.Sess) != 1 || row.Sess[0].ID != id || row.Sess[0].Frames != 2 {
		t.Fatalf("draining row sessions = %+v, want %q at 2 frames", row.Sess, id)
	}
}

// TestFailedDrainRetriesAndRejoins drains a shard whose one session
// cannot move (the target already holds its id). The shard stays
// draining and keeps serving the session; a retried DrainShard finishes
// the drain, and the address may Join again. Then a second failed drain
// is followed by the shard's death and a restart at the same address
// (`shard -drain-on-sigterm`, then `shard -join`): the probe must catch
// the draining shard's loss, recover its session, and let it Join.
func TestFailedDrainRetriesAndRejoins(t *testing.T) {
	coord, sA, sB, id, feed, failDrain := newFailedDrain(t)

	feed(0)
	dup := failDrain()
	feed(1) // still served on the draining shard
	dup.Close()
	if err := coord.DrainShard(sA.addr); err != nil {
		t.Fatalf("retried drain: %v", err)
	}
	checkPlacement(t, coord)
	if got := coord.RouteOf(id); got != sB.addr {
		t.Fatalf("session routes to %q after the retried drain, want %s", got, sB.addr)
	}
	if err := coord.Join(sA.addr); err != nil {
		t.Fatalf("join after the retried drain: %v", err)
	}
	checkPlacement(t, coord)
	if got := coord.RouteOf(id); got != sA.addr {
		t.Fatalf("session routes to %q after rejoin, want its arc %s", got, sA.addr)
	}

	if err := coord.Replicate(); err != nil {
		t.Fatal(err)
	}
	failDrain().Close()
	sA.ln.Kill()
	coord.ProbeOnce()
	checkPlacement(t, coord)
	if got := coord.RouteOf(id); got != sB.addr {
		t.Fatalf("session routes to %q after the draining shard died, want %s", got, sB.addr)
	}
	startShardAt(t, sA.addr)
	if err := coord.Join(sA.addr); err != nil {
		t.Fatalf("join of the restarted shard: %v", err)
	}
	checkPlacement(t, coord)
	feed(2)
	if err := coord.Drain(id); err != nil {
		t.Fatal(err)
	}
	snap, err := coord.Snapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.StreamFrames != 3 {
		t.Fatalf("session holds %d frames after recovery and rejoin, want 3", snap.StreamFrames)
	}
}

// TestFailedDrainEndsWhenStuckSessionCloses: a shard a failed drain
// left draining is removed once its stuck session leaves by
// CloseSession, with no retried drain.
func TestFailedDrainEndsWhenStuckSessionCloses(t *testing.T) {
	coord, sA, _, id, feed, failDrain := newFailedDrain(t)
	feed(0)
	failDrain().Close()
	if err := coord.CloseSession(id); err != nil {
		t.Fatal(err)
	}
	checkPlacement(t, coord)
	for _, row := range coord.Status().Shards {
		if row.Addr == sA.addr {
			t.Fatalf("status still lists %s (%s) after its last session closed", sA.addr, row.Role)
		}
	}
	if err := coord.Join(sA.addr); err != nil {
		t.Fatalf("join after the drain ended: %v", err)
	}
	checkPlacement(t, coord)
}

// --- the acceptance soak ---------------------------------------------

// TestFleetElasticitySoak is the issue's acceptance scenario: a
// 3-shard fleet under continuous multi-session ingest grows to 4
// mid-meeting, gracefully drains one shard, loses another to a crash,
// and has the coordinator partitioned from a third — and every
// surviving session's final checkpoint is bit-identical to a
// single-manager baseline, with no request ever blocking past its
// deadline.
func TestFleetElasticitySoak(t *testing.T) {
	const (
		nSessions = 6
		joinAt    = 8  // s3 joins
		drainAt   = 14 // s0 drains
		killAt    = 20 // s1 dies
		partAt    = 26 // coordinator partitioned from s2
		total     = 32
	)
	frames, sils := leakFrames(total)
	s0, s1, s2, s3 := startShard(t), startShard(t), startShard(t), startShard(t)
	coord, err := NewCoordinator(CoordinatorConfig{
		Shards:        []string{s0.addr, s1.addr, s2.addr},
		Stores:        []session.CheckpointStore{session.NewMemStore(), session.NewMemStore()},
		ReplicaFactor: 2, WriteQuorum: 1,
		Dial: dialWith(Timeouts{Read: 5 * time.Second, Write: 5 * time.Second, Dial: 5 * time.Second}),
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	spec0 := OpenSpec{W: fw, H: fh, Seed: 1}
	base := session.NewManager(session.Config{})
	defer base.Close()
	bs, err := base.Open("baseline", fw, fh, fleetTestOptions(spec0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		if err := bs.Feed(frames[i], sils[i]); err != nil {
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

	var ids []string
	for i := 0; i < nSessions; i++ {
		id := fmt.Sprintf("soak-call-%02d", i)
		ids = append(ids, id)
		if err := coord.Open(OpenSpec{ID: id, W: fw, H: fh, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	feedAll := func(from, to int) {
		t.Helper()
		for _, id := range ids {
			for i := from; i < to; i++ {
				start := time.Now()
				if err := coord.Feed(id, core.Frame{Img: frames[i], Oracle: sils[i]}); err != nil {
					t.Fatalf("feed %s[%d]: %v", id, i, err)
				}
				if e := time.Since(start); e > 30*time.Second {
					t.Fatalf("feed %s[%d] blocked %v", id, i, e)
				}
			}
		}
	}

	feedAll(0, joinAt)
	checkPlacement(t, coord)
	if err := coord.Join(s3.addr); err != nil {
		t.Fatalf("join mid-meeting: %v", err)
	}
	checkPlacement(t, coord)

	feedAll(joinAt, drainAt)
	if err := coord.DrainShard(s0.addr); err != nil {
		t.Fatalf("drain mid-meeting: %v", err)
	}
	checkPlacement(t, coord)
	if open := s0.mgr.Stats().Open; open != 0 {
		t.Fatalf("drained shard still hosts %d sessions", open)
	}

	feedAll(drainAt, killAt)
	drainAllAndReplicate := func() {
		t.Helper()
		for _, id := range ids {
			if err := coord.Drain(id); err != nil {
				t.Fatal(err)
			}
		}
		if err := coord.Replicate(); err != nil {
			t.Fatal(err)
		}
	}
	drainAllAndReplicate()
	s1.ln.Kill() // crash during the rebalanced regime

	feedAll(killAt, partAt)
	checkPlacement(t, coord)
	drainAllAndReplicate()
	s2.ln.Kill() // partition: the manager lives, the coordinator can't reach it

	feedAll(partAt, total)
	checkPlacement(t, coord)

	live := map[string]bool{}
	for _, m := range coord.Members() {
		live[m] = true
	}
	if !live[s3.addr] || len(live) != 3 {
		t.Fatalf("membership after the soak = %v", coord.Members())
	}
	for _, id := range ids {
		if err := coord.Drain(id); err != nil {
			t.Fatal(err)
		}
		got, err := coord.Checkpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantFinal) {
			t.Fatalf("session %q final checkpoint diverged from baseline after the soak", id)
		}
		if route := coord.RouteOf(id); route != s3.addr {
			t.Logf("session %q finished on %s", id, route)
		}
	}
	if joined, drained := coord.Rebalances(); joined != 1 || drained != 1 {
		t.Fatalf("rebalances = (%d joins, %d drains)", joined, drained)
	}
	checkPlacement(t, coord)
}

// TestStatusSamplesStalledShardsConcurrently: each row is sampled on
// its own, so two stalled shards cost one LoadTimeout, not two. Both
// rows carry the timeout in Err, and neither shard is marked down.
func TestStatusSamplesStalledShardsConcurrently(t *testing.T) {
	sA, stallA := startStallShard(t)
	sB, stallB := startStallShard(t)
	const loadTimeout = 250 * time.Millisecond
	coord, err := NewCoordinator(CoordinatorConfig{
		Shards: []string{sA.addr, sB.addr}, Store: session.NewMemStore(),
		Dial: dialWith(shortTimeouts()), Logf: t.Logf,
		LoadTimeout: loadTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	stallA.stalled.Store(true)
	stallB.stalled.Store(true)

	start := time.Now()
	st := coord.Status()
	if elapsed := time.Since(start); elapsed >= 2*loadTimeout {
		t.Fatalf("Status over two stalled shards took %v, want under %v", elapsed, 2*loadTimeout)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("Status has %d rows, want 2", len(st.Shards))
	}
	for _, row := range st.Shards {
		if row.Err == "" {
			t.Fatalf("stalled shard %s sampled without error: %+v", row.Addr, row)
		}
	}
	if down := coord.Down(); len(down) != 0 {
		t.Fatalf("Status marked %v down", down)
	}
}

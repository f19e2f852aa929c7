package main

import (
	"bytes"
	"errors"
	"io"
	"maps"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/bgbuster/bgbuster"
	"github.com/bgbuster/bgbuster/internal/faultinject"
	"github.com/bgbuster/bgbuster/internal/fleet"
	"github.com/bgbuster/bgbuster/internal/fleet/autopilot"
	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/session"
)

func TestFleetSubcommandFlagValidation(t *testing.T) {
	if err := run([]string{"serve"}); err == nil || !strings.Contains(err.Error(), "-shards is required") {
		t.Fatalf("serve without shards: %v", err)
	}
	if err := run([]string{"serve", "-shards", " , "}); err == nil || !strings.Contains(err.Error(), "-shards is required") {
		t.Fatalf("serve with blank shards: %v", err)
	}
	if err := run([]string{"shard", "-bogus"}); err == nil {
		t.Fatal("shard with unknown flag succeeded")
	}
	if err := run([]string{"serve", "-shards", "127.0.0.1:1", "-checkpoint-dir", "/dev/null/x"}); err == nil {
		t.Fatal("serve with unusable checkpoint dir succeeded")
	}
	if err := run([]string{"serve", "-shards", "127.0.0.1:1", "-elect"}); err == nil || !strings.Contains(err.Error(), "-elect requires -autopilot") {
		t.Fatalf("serve -elect without -autopilot: %v", err)
	}
	if err := run([]string{"shard", "-weight", "4"}); err == nil || !strings.Contains(err.Error(), "-weight requires -join") {
		t.Fatalf("shard -weight without -join: %v", err)
	}
}

// startFacadeShard boots the topology the shard subcommand assembles —
// a SessionManager served over the fleet wire protocol with
// StreamAttackOptions as the per-spec options hook — on a loopback port.
// Closing the returned listener kills the shard: Serve drops every
// connection.
func startFacadeShard(t *testing.T) net.Listener {
	t.Helper()
	mgr := bgbuster.NewSessionManager(bgbuster.SessionConfig{})
	sh, err := bgbuster.NewFleetShard(bgbuster.FleetShardConfig{
		Manager: mgr,
		OptionsFor: func(spec bgbuster.FleetOpenSpec) bgbuster.ReconstructOptions {
			return bgbuster.StreamAttackOptions(spec.W, spec.H, spec.UnknownVB, spec.Seed)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); sh.Serve(ln) }()
	t.Cleanup(func() { ln.Close(); <-done; mgr.Close() })
	return ln
}

// TestFleetFacadeEndToEnd drives the exact topology the shard
// subcommand assembles — a SessionManager served over the fleet wire
// protocol with StreamAttackOptions as the per-spec options hook —
// through the public facade: open, feed, snapshot, checkpoint.
func TestFleetFacadeEndToEnd(t *testing.T) {
	const w, h = 48, 36
	cl, err := bgbuster.DialFleet(startFacadeShard(t).Addr().String(), bgbuster.FleetLimits{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	spec := bgbuster.FleetOpenSpec{ID: liveCallID(0), W: w, H: h, Seed: liveCallSeed(1, liveCallID(0))}
	if err := cl.Open(spec); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		img := imagex.NewFilled(w, h, imagex.RGB{R: uint8(40 + i*10), G: 90, B: 160})
		if err := cl.Feed(spec.ID, bgbuster.Frame{Img: img, Oracle: imagex.NewMask(w, h)}); err != nil {
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
	if snap.Fed != 12 || snap.StreamFrames != 12 {
		t.Fatalf("snapshot: %+v", snap)
	}
	ckpt, err := cl.Checkpoint(spec.ID)
	if err != nil {
		t.Fatal(err)
	}
	// The exported bytes are a genuine .bbck: the facade can resume them
	// locally under the same StreamAttackOptions.
	stream, err := bgbuster.ResumeStream(ckpt, bgbuster.StreamAttackOptions(w, h, false, spec.Seed))
	if err != nil {
		t.Fatalf("shard-exported checkpoint did not resume through the facade: %v", err)
	}
	if stream.Frames() != 12 {
		t.Fatalf("resumed stream at %d frames, want 12", stream.Frames())
	}
	if err := cl.CloseSession(spec.ID); err != nil {
		t.Fatal(err)
	}
}

// TestStatsLeavesDeadShardUp runs `bgbuster stats` against a loopback
// coordinator with one shard killed: the dead shard degrades to a
// DOWN/? row, the command succeeds, and reading status marks nothing
// down — health transitions belong to the prober and the request path.
func TestStatsLeavesDeadShardUp(t *testing.T) {
	live, dead := startFacadeShard(t), startFacadeShard(t)
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
		Shards:      []string{live.Addr().String(), dead.Addr().String()},
		LoadTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.Open(fleet.OpenSpec{ID: liveCallID(0), W: 48, H: 36, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() { defer close(served); fleet.Serve(ln, coord, fleet.Limits{}, nil) }()
	defer func() { ln.Close(); <-served }()
	dead.Close()

	out, serr := captureStdout(t, func() error { return runStats([]string{"-addr", ln.Addr().String()}) })
	if serr != nil {
		t.Fatalf("stats with a dead shard: %v", serr)
	}
	row := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, dead.Addr().String()+" ") {
			row = line
		}
	}
	if !strings.Contains(row, " DOWN ") || !strings.Contains(row, " ? ") {
		t.Fatalf("no DOWN/? row for the dead shard %s in:\n%s", dead.Addr(), out)
	}
	if down := coord.Down(); len(down) != 0 {
		t.Fatalf("stats marked %v down", down)
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	printed := make(chan string)
	go func() { b, _ := io.ReadAll(r); printed <- string(b) }()
	stdout := os.Stdout
	os.Stdout = w
	ferr := fn()
	os.Stdout = stdout
	w.Close()
	return <-printed, ferr
}

// serveCoordinator serves a coordinator over shards on a loopback port
// and returns its address.
func serveCoordinator(t *testing.T, shards ...net.Listener) string {
	t.Helper()
	addrs := make([]string, len(shards))
	for i, sh := range shards {
		addrs[i] = sh.Addr().String()
	}
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{Shards: addrs})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() { defer close(served); fleet.Serve(ln, coord, fleet.Limits{}, nil) }()
	t.Cleanup(func() { ln.Close(); <-served; coord.Close() })
	return ln.Addr().String()
}

// galleryRows maps each participant row of a `live -gallery` report to
// "frames coverage vb", or to "left". Columns are located by the
// report's header, so the local and -connect layouts compare.
func galleryRows(out string) map[string]string {
	rows := map[string]string{}
	var col map[string]int
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) > 1 && f[0] == "id" {
			col = map[string]int{}
			for i, name := range f {
				col[name] = i
			}
			continue
		}
		if col == nil || len(f) < 2 || !strings.HasPrefix(f[0], "tile-") {
			continue
		}
		switch {
		case f[1] == "left":
			rows[f[0]] = "left"
		case len(f) <= col["vb"]:
			rows[f[0]] = line
		default:
			rows[f[0]] = f[col["frames"]] + " " + f[col["coverage"]] + " " + f[col["vb"]]
		}
	}
	return rows
}

// TestLiveGalleryLocalMatchesFleet runs one seeded `live -gallery`
// meeting twice: through an in-process shard over a local manager, and
// with -connect through a coordinator over two loopback shards. Both
// paths drive the same gallery sink with the same per-tile specs, so
// every participant must report the same frames, coverage and VB, and
// the early leaver must be held as left on both.
func TestLiveGalleryLocalMatchesFleet(t *testing.T) {
	args := []string{"live", "-gallery", "-sessions", "4", "-frames", "24", "-rate", "-1"}
	local, err := captureStdout(t, func() error { return run(args) })
	if err != nil {
		t.Fatalf("local gallery run: %v\n%s", err, local)
	}
	addr := serveCoordinator(t, startFacadeShard(t), startFacadeShard(t))
	remote, err := captureStdout(t, func() error { return run(append(args, "-connect", addr)) })
	if err != nil {
		t.Fatalf("-connect gallery run: %v\n%s", err, remote)
	}
	want := map[string]string{
		"tile-00": "left",
		"tile-01": "24 40.78% office",
		"tile-02": "24 45.25% space",
		"tile-03": "18 45.41% forest",
	}
	for name, out := range map[string]string{"local": local, "-connect": remote} {
		got := galleryRows(out)
		if len(got) != len(want) {
			t.Errorf("%s: rows %v, want %v\n%s", name, got, want, out)
			continue
		}
		for id, row := range want {
			if got[id] != row {
				t.Errorf("%s: %s = %q, want %q\n%s", name, id, got[id], row, out)
			}
		}
	}
}

// TestLiveGalleryConnectRunsTwice runs one seeded `live -gallery
// -connect` meeting twice against one coordinator. The first run must
// leave no session on the fleet, so the second opens the same tile ids
// and reports the same rows.
func TestLiveGalleryConnectRunsTwice(t *testing.T) {
	addr := serveCoordinator(t, startFacadeShard(t), startFacadeShard(t))
	args := []string{"live", "-gallery", "-sessions", "4", "-frames", "24", "-rate", "-1", "-connect", addr}
	var first map[string]string
	for i := 1; i <= 2; i++ {
		out, err := captureStdout(t, func() error { return run(args) })
		if err != nil {
			t.Fatalf("run %d: %v\n%s", i, err, out)
		}
		rows := galleryRows(out)
		if len(rows) == 0 {
			t.Fatalf("run %d reported no participants:\n%s", i, out)
		}
		if first == nil {
			first = rows
		} else if !maps.Equal(rows, first) {
			t.Fatalf("run %d rows %v, want the first run's %v", i, rows, first)
		}
		cl, err := fleet.Dial(addr, fleet.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		st, err := cl.Status()
		cl.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range st.Shards {
			if len(row.Sess) != 0 {
				t.Fatalf("after run %d shard %s still holds %d sessions", i, row.Addr, len(row.Sess))
			}
		}
	}
}

// electionFixture is two shards and three in-memory checkpoint
// replicas that serve -elect candidates share, under a fake clock.
type electionFixture struct {
	t      *testing.T
	shards []string
	stores []session.CheckpointStore
	clk    *faultinject.FakeClock
	stop   chan os.Signal
}

func newElectionFixture(t *testing.T) *electionFixture {
	f := &electionFixture{
		t:      t,
		shards: []string{startFacadeShard(t).Addr().String(), startFacadeShard(t).Addr().String()},
		stores: []session.CheckpointStore{session.NewMemStore(), session.NewMemStore(), session.NewMemStore()},
		clk:    faultinject.NewFakeClock(time.Unix(1_700_000_000, 0)),
		stop:   make(chan os.Signal, 1),
	}
	timer := time.AfterFunc(30*time.Second, func() { f.stop <- os.Interrupt })
	t.Cleanup(func() { timer.Stop() })
	return f
}

// candidate builds a serve -elect candidate over wrap(the shared quorum
// store).
func (f *electionFixture) candidate(id string, wrap func(session.CheckpointStore) session.CheckpointStore) *candidate {
	f.t.Helper()
	qs, err := session.NewQuorumStore(f.stores, 3, 2)
	if err != nil {
		f.t.Fatal(err)
	}
	var store session.CheckpointStore = qs
	if wrap != nil {
		store = wrap(store)
	}
	c, err := newCandidate(
		autopilot.ElectorConfig{Store: store, ID: id, TTL: 10 * time.Second, Settle: -1, Clock: f.clk},
		fleet.CoordinatorConfig{Shards: f.shards, Store: store, Logf: f.t.Logf})
	if err != nil {
		f.t.Fatal(err)
	}
	return c
}

// acquire runs c's acquisition step and requires a coordinator at the
// lease epoch.
func (f *electionFixture) acquire(c *candidate) (*fleet.Coordinator, <-chan struct{}) {
	f.t.Helper()
	coord, lost, err := c.acquire(f.stop)
	if err != nil {
		f.t.Fatalf("acquire: %v", err)
	}
	f.t.Cleanup(func() { coord.Close() })
	if lease := c.elector.Lease(); coord.Epoch() != lease.Epoch {
		f.t.Fatalf("coordinator epoch %d under lease %+v, want the lease epoch", coord.Epoch(), lease)
	}
	return coord, lost
}

func electionFrame(i int) bgbuster.Frame {
	const w, h = 48, 36
	return bgbuster.Frame{Img: imagex.NewFilled(w, h, imagex.RGB{R: uint8(40 + i*10), G: 90, B: 160}), Oracle: imagex.NewMask(w, h)}
}

// TestAcquireFleetFencesPredecessor runs the serve -elect acquisition
// step for two candidates over shared in-memory stores: the first wins
// a vacant lease and builds the fleet from its shard list; the second
// wins the lease after it expires, takes the fleet over at the lease
// epoch, and the first coordinator's next mutation dies at the shard
// fence.
func TestAcquireFleetFencesPredecessor(t *testing.T) {
	f := newElectionFixture(t)
	c1, _ := f.acquire(f.candidate("coord-a", nil))
	spec := fleet.OpenSpec{ID: liveCallID(0), W: 48, H: 36, Seed: 1}
	if err := c1.Open(spec); err != nil {
		t.Fatal(err)
	}
	if err := c1.Feed(spec.ID, electionFrame(0)); err != nil {
		t.Fatal(err)
	}

	// coord-a stops renewing; once its lease lapses coord-b wins it.
	f.clk.Advance(11 * time.Second)
	c2, _ := f.acquire(f.candidate("coord-b", nil))
	if c2.Epoch() <= c1.Epoch() {
		t.Fatalf("successor epoch %d does not fence predecessor epoch %d", c2.Epoch(), c1.Epoch())
	}
	if err := c1.Feed(spec.ID, electionFrame(1)); !errors.Is(err, fleet.ErrDeposed) {
		t.Fatalf("deposed coordinator's feed = %v, want ErrDeposed", err)
	}
	if err := c1.Open(fleet.OpenSpec{ID: liveCallID(1), W: 48, H: 36, Seed: 1}); !errors.Is(err, fleet.ErrDeposed) {
		t.Fatalf("deposed coordinator's open = %v, want ErrDeposed", err)
	}
	// The successor serves the session it inherited.
	if err := c2.Feed(spec.ID, electionFrame(1)); err != nil {
		t.Fatalf("successor feed: %v", err)
	}
	if err := c2.Drain(spec.ID); err != nil {
		t.Fatal(err)
	}
	if snap, err := c2.Snapshot(spec.ID); err != nil || snap.StreamFrames != 2 {
		t.Fatalf("successor snapshot = %+v, %v; want 2 frames", snap, err)
	}
}

// TestDeposedCandidateReacquiresFleet deposes a leader that is still
// running: coord-a leads, coord-b takes over, coord-a's elector notices
// and ends its term, and when coord-b dies in turn coord-a wins the
// lease back. It must not keep the lease over its deposed coordinator:
// acquiring again yields a working coordinator at the new lease epoch,
// which fences coord-b's.
func TestDeposedCandidateReacquiresFleet(t *testing.T) {
	f := newElectionFixture(t)
	a := f.candidate("coord-a", nil)
	ca, lostA := f.acquire(a)
	spec := fleet.OpenSpec{ID: liveCallID(0), W: 48, H: 36, Seed: 1}
	if err := ca.Open(spec); err != nil {
		t.Fatal(err)
	}

	f.clk.Advance(11 * time.Second)
	cb, _ := f.acquire(f.candidate("coord-b", nil))
	// coord-a's elector loop (the autopilot's goroutine) ticks next.
	go func() {
		if err := a.elector.Tick(); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-lostA:
	case <-time.After(10 * time.Second):
		t.Fatal("coord-a's term did not end when its lease was taken")
	}
	if !ca.Deposed() {
		t.Fatal("coord-a's coordinator is not self-fenced after losing the lease")
	}

	// coord-b dies (stops renewing); coord-a contends again.
	f.clk.Advance(11 * time.Second)
	ca2, _ := f.acquire(a)
	if ca2.Epoch() <= cb.Epoch() {
		t.Fatalf("reacquired epoch %d does not fence coord-b's epoch %d", ca2.Epoch(), cb.Epoch())
	}
	if err := ca2.Feed(spec.ID, electionFrame(0)); err != nil {
		t.Fatalf("reacquired coordinator's feed: %v", err)
	}
	if err := cb.Feed(spec.ID, electionFrame(1)); !errors.Is(err, fleet.ErrDeposed) {
		t.Fatalf("coord-b's feed after coord-a reacquired = %v, want ErrDeposed", err)
	}
}

// metaReadFails is a checkpoint store whose fleet meta cannot be read.
type metaReadFails struct{ session.CheckpointStore }

func (s metaReadFails) Load(id string) ([]byte, error) {
	if id == fleet.MetaKey {
		return nil, errors.New("read: input/output error")
	}
	return s.CheckpointStore.Load(id)
}

// TestAcquireFleetRefusesUnreadableMeta requires a candidate that wins
// the lease but cannot read the fleet meta to build no fresh
// coordinator: it resigns and contends again, and the stored meta and
// session checkpoints survive.
func TestAcquireFleetRefusesUnreadableMeta(t *testing.T) {
	f := newElectionFixture(t)
	c1, _ := f.acquire(f.candidate("coord-a", nil))
	spec := fleet.OpenSpec{ID: liveCallID(0), W: 48, H: 36, Seed: 1}
	if err := c1.Open(spec); err != nil {
		t.Fatal(err)
	}
	if err := c1.Replicate(); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	meta, err := f.stores[0].Load(fleet.MetaKey)
	if err != nil {
		t.Fatal(err)
	}

	f.clk.Advance(11 * time.Second)
	b := f.candidate("coord-b", func(s session.CheckpointStore) session.CheckpointStore { return metaReadFails{s} })
	stop := make(chan os.Signal, 1)
	timer := time.AfterFunc(1500*time.Millisecond, func() { stop <- os.Interrupt })
	defer timer.Stop()
	if coord, _, err := b.acquire(stop); err == nil {
		coord.Close()
		t.Fatal("acquired the fleet without reading its meta")
	}
	if leading, _ := b.elector.Leading(); leading {
		t.Fatal("candidate kept the lease after failing to acquire the fleet")
	}
	if got, err := f.stores[0].Load(fleet.MetaKey); err != nil || !bytes.Equal(got, meta) {
		t.Fatalf("fleet meta changed by the failed acquisition (err %v)", err)
	}
	if _, err := f.stores[0].Load(spec.ID); err != nil {
		t.Fatalf("session checkpoint lost: %v", err)
	}
}

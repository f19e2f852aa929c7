package autopilot

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/bgbuster/bgbuster/internal/core"
	"github.com/bgbuster/bgbuster/internal/faultinject"
	"github.com/bgbuster/bgbuster/internal/fleet"
	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/segment"
	"github.com/bgbuster/bgbuster/internal/session"
)

const fw, fh = 48, 36

// testOptions mirrors the fleet test harness: a deterministic
// two-candidate dictionary plus the oracle segmenter, so any two
// sessions fed the same frames produce bit-identical checkpoints.
func testOptions(spec fleet.OpenSpec) core.Options {
	o := core.DefaultOptions()
	o.KnownImages = map[string]*imagex.Image{
		"flat":  imagex.NewFilled(spec.W, spec.H, imagex.RGB{R: 20, G: 120, B: 220}),
		"other": imagex.NewFilled(spec.W, spec.H, imagex.RGB{R: 200, G: 10, B: 10}),
	}
	o.Segmenter = segment.OracleSegmenter{}
	o.ColorRefine = false
	return o
}

// leakFrames builds n frames of pure "flat" VB with a moving leaked
// rectangle, plus empty oracle silhouettes.
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

// chaosListener lets a test kill a shard the way a process death
// would: accepting stops and every established connection drops.
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

// bootShard starts a worker shard; addr "" picks a fresh loopback
// port, a concrete addr restarts "the same process" after a kill.
func bootShard(t *testing.T, addr string) *testShard {
	t.Helper()
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cl := &chaosListener{Listener: ln}
	mgr := session.NewManager(session.Config{})
	sh, err := fleet.NewShard(fleet.ShardConfig{Manager: mgr, OptionsFor: testOptions, Logf: t.Logf})
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

func testTimeouts() fleet.Timeouts {
	return fleet.Timeouts{Dial: 5 * time.Second, Read: 5 * time.Second, Write: 5 * time.Second}
}

// testDial is a CoordinatorConfig.Dial opening shard clients under
// testTimeouts.
func testDial(addr string, lim fleet.Limits) (*fleet.Client, error) {
	return fleet.DialTimeouts(addr, lim, testTimeouts())
}

// --- planner unit tests ----------------------------------------------

func TestPlannerImbalanceAndMoves(t *testing.T) {
	mkRow := func(addr string, weight uint16, sess ...fleet.SessionLoad) fleet.ShardStatus {
		var mem uint64
		for _, s := range sess {
			mem += s.Mem
		}
		return fleet.ShardStatus{Addr: addr, Weight: weight, Mem: mem, Sess: sess}
	}
	probed := mkRow("probed:1", 1)
	probed.Role = fleet.RoleProbation
	leaving := mkRow("leaving:1", 1, fleet.SessionLoad{ID: "s-stuck", Mem: 9000})
	leaving.Role = fleet.RoleDraining
	rows := []fleet.ShardStatus{
		mkRow("hot:1", 1,
			fleet.SessionLoad{ID: "s-big", Mem: 4000},
			fleet.SessionLoad{ID: "s-mid", Mem: 2000},
			fleet.SessionLoad{ID: "s-small", Mem: 1000}),
		mkRow("cold:1", 1),
		probed,
		leaving,
		{Addr: "dead:1", Weight: 1, Err: "down"},
	}
	costs := planCosts(rows)
	if len(costs) != 2 {
		t.Fatalf("planCosts kept %d rows, want 2 (probation, draining and failed rows dropped)", len(costs))
	}
	if score := imbalanceOf(costs); score < 1.9 {
		t.Fatalf("imbalance %f, want ~2 for one loaded + one empty shard", score)
	}

	moves := planMoves(costs, 0.25, 8, nil)
	if len(moves) == 0 {
		t.Fatal("no moves planned for a fully skewed fleet")
	}
	// Cheapest-first: the small session moves before the mid one, and
	// nothing lands anywhere but the cold shard.
	if moves[0].ID != "s-small" || moves[0].From != "hot:1" || moves[0].To != "cold:1" {
		t.Fatalf("first move %+v, want s-small hot->cold", moves[0])
	}
	for _, m := range moves {
		if m.To != "cold:1" {
			t.Fatalf("move %+v targets a non-cold shard", m)
		}
		if m.ID == "s-big" {
			t.Fatalf("planner moved the most expensive session: %+v", m)
		}
	}

	// Cooldown: skipping every hot session plans nothing.
	if got := planMoves(planCosts(rows), 0.25, 8, func(string) bool { return true }); len(got) != 0 {
		t.Fatalf("planned %d moves with every session cooling down", len(got))
	}

	// Overshoot guard: one giant session on the hot shard stays put —
	// handing it over would just swap which shard is hot.
	giant := []fleet.ShardStatus{
		mkRow("hot:1", 1, fleet.SessionLoad{ID: "s-giant", Mem: 4000}),
		mkRow("cold:1", 1),
	}
	if got := planMoves(planCosts(giant), 0.25, 8, nil); len(got) != 0 {
		t.Fatalf("planned %d moves that cannot reduce the spread", len(got))
	}

	// Weight awareness: identical raw load is NOT imbalance when the
	// loaded shard advertises proportionally more capacity.
	weighted := []fleet.ShardStatus{
		mkRow("big:1", 4, fleet.SessionLoad{ID: "a", Mem: 4000}),
		mkRow("small:1", 1, fleet.SessionLoad{ID: "b", Mem: 1000}),
	}
	if score := imbalanceOf(planCosts(weighted)); score > 0.01 {
		t.Fatalf("weighted imbalance %f, want ~0", score)
	}
}

// --- graceful stats degradation (satellite 1) ------------------------

// TestLoadsDegradeGracefully: an unreachable shard costs one
// placeholder row with Err set — sampling neither fails the whole call
// nor triggers shard-loss recovery.
func TestLoadsDegradeGracefully(t *testing.T) {
	s0, s1 := bootShard(t, ""), bootShard(t, "")
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
		Shards:      []string{s0.addr, s1.addr},
		Dial:        testDial,
		LoadTimeout: 500 * time.Millisecond,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.Open(fleet.OpenSpec{ID: "call-a", W: fw, H: fh, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	s1.ln.Kill()

	rows := coord.Status().Shards
	if len(rows) != 2 {
		t.Fatalf("%d load rows, want one per member", len(rows))
	}
	byAddr := map[string]fleet.ShardStatus{}
	for _, r := range rows {
		byAddr[r.Addr] = r
	}
	if r := byAddr[s1.addr]; r.Err == "" {
		t.Fatalf("killed shard's row %+v carries no error", r)
	}
	if r := byAddr[s0.addr]; r.Err != "" {
		t.Fatalf("live shard's row %+v unexpectedly failed", r)
	}
	// Passive contract: sampling observed the dead shard but must not
	// have marked it down.
	if down := coord.Down(); len(down) != 0 {
		t.Fatalf("load sampling triggered shard loss: %v", down)
	}

	// The same rows over the wire, plus autopilot status (disabled —
	// none registered).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go fleet.Serve(ln, coord, fleet.Limits{}, t.Logf)
	cl, err := fleet.DialTimeouts(ln.Addr().String(), fleet.Limits{}, testTimeouts())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	wst, err := cl.Status()
	if err != nil {
		t.Fatalf("wire status: %v", err)
	}
	if len(wst.Shards) != 2 {
		t.Fatalf("%d wire rows, want 2", len(wst.Shards))
	}
	if info := wst.Auto; info.Enabled {
		t.Fatal("autopilot reports enabled with none registered")
	}
}

// --- the autopilot soak ----------------------------------------------

// TestAutopilotSoak is the acceptance soak: a skewed 4-shard fleet
// under continuous feeding auto-drains its hot shard below the
// imbalance threshold with zero dropped frames; a killed-then-
// restarted shard is auto re-admitted through probation and promoted
// after quarantine; the scrubber restores W-of-N after a replica wipe;
// and every surviving session's final checkpoint is bit-identical to a
// single-manager baseline.
func TestAutopilotSoak(t *testing.T) {
	const (
		nSessions = 8
		seg1      = 8  // skew + rebalance regime
		seg2      = 16 // kill + readmission regime
		total     = 24
	)
	frames, sils := leakFrames(total)
	s0, s1, s2, s3 := bootShard(t, ""), bootShard(t, ""), bootShard(t, ""), bootShard(t, "")
	stores := []session.CheckpointStore{session.NewMemStore(), session.NewMemStore(), session.NewMemStore()}
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
		Shards:        []string{s0.addr, s1.addr, s2.addr, s3.addr},
		Stores:        stores,
		ReplicaFactor: 2, WriteQuorum: 2,
		Dial:        testDial,
		LoadTimeout: time.Second,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	clk := faultinject.NewFakeClock(time.Unix(1_754_600_000, 0))
	ap, err := New(Config{
		Coordinator:  coord,
		HighWater:    0.5,
		ReadmitAfter: 2,
		Quarantine:   time.Minute,
		Clock:        clk,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Baseline: one manager, same frames, no fleet in the way.
	base := session.NewManager(session.Config{})
	defer base.Close()
	bs, err := base.Open("baseline", fw, fh, testOptions(fleet.OpenSpec{W: fw, H: fh}))
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
		id := fmt.Sprintf("soak-%02d", i)
		ids = append(ids, id)
		if err := coord.Open(fleet.OpenSpec{ID: id, W: fw, H: fh, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	feedAll := func(from, to int) {
		t.Helper()
		for _, id := range ids {
			for i := from; i < to; i++ {
				if err := coord.Feed(id, core.Frame{Img: frames[i], Oracle: sils[i]}); err != nil {
					t.Fatalf("feed %s[%d]: %v", id, i, err)
				}
			}
		}
	}

	// Skew: pile every session onto s0, then let the planner drain it.
	for _, id := range ids {
		if err := coord.Migrate(id, s0.addr); err != nil {
			t.Fatal(err)
		}
	}
	feedAll(0, seg1/2)
	converged := false
	for pass := 0; pass < 12; pass++ {
		if _, err := ap.PlanOnce(); err != nil {
			t.Fatalf("plan pass %d: %v", pass, err)
		}
		clk.Advance(2 * time.Minute) // clear per-session cooldowns
		if st := ap.Status(); st.Imbalance <= 0.5 {
			converged = true
			break
		}
	}
	if !converged {
		t.Fatalf("imbalance %f still above threshold after 12 passes", ap.Status().Imbalance)
	}
	if open := s0.mgr.Stats().Open; open == nSessions {
		t.Fatal("hot shard was not drained at all")
	}
	if moves := ap.Status().Moves; moves == 0 {
		t.Fatal("convergence without a single migration")
	}
	feedAll(seg1/2, seg1)

	// Crash s1 and prove recovery, then bring "the process" back on the
	// same address and watch the autopilot re-admit it through
	// probation.
	for _, id := range ids {
		if err := coord.Drain(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := coord.Replicate(); err != nil {
		t.Fatal(err)
	}
	s1.ln.Kill()
	feedAll(seg1, seg2) // rides through shard-loss recovery
	// Feeds may have landed only on survivors; a probe pass guarantees
	// the kill is detected before re-admission is attempted.
	for i := 0; len(coord.Down()) == 0 && i < 50; i++ {
		coord.ProbeOnce()
	}
	if down := coord.Down(); len(down) != 1 || down[0] != s1.addr {
		t.Fatalf("down = %v, want [%s]", down, s1.addr)
	}

	s1b := bootShard(t, s1.addr)
	readmitted := 0
	for i := 0; i < 4 && readmitted == 0; i++ {
		r, _, err := ap.ReadmitOnce()
		if err != nil {
			t.Fatalf("readmit pass %d: %v", i, err)
		}
		readmitted += r
	}
	if readmitted != 1 {
		t.Fatalf("readmitted = %d, want 1", readmitted)
	}
	if prob := coord.Probation(); len(prob) != 1 || prob[0] != s1b.addr {
		t.Fatalf("probation = %v, want [%s]", prob, s1b.addr)
	}
	// Probation shards accept only new sessions — a migration onto one
	// is refused.
	if err := coord.Migrate(ids[0], s1b.addr); err == nil || !strings.Contains(err.Error(), "probation") {
		t.Fatalf("migrate onto probation shard: %v, want probation refusal", err)
	}
	// Quarantine passes cleanly -> promoted to full membership.
	clk.Advance(2 * time.Minute)
	if _, promoted, err := ap.ReadmitOnce(); err != nil || promoted != 1 {
		t.Fatalf("promotion: promoted=%d err=%v", promoted, err)
	}
	if prob := coord.Probation(); len(prob) != 0 {
		t.Fatalf("probation after promote = %v", prob)
	}

	// Replica wipe: empty one backing store, scrub restores W-of-N.
	if err := coord.Replicate(); err != nil {
		t.Fatal(err)
	}
	wiped, err := stores[1].List()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range wiped {
		if err := stores[1].Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := ap.ScrubOnce()
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if rep.Repaired == 0 {
		t.Fatalf("scrub repaired nothing after a replica wipe: %+v", rep)
	}
	rep2, err := ap.ScrubOnce()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Repaired != 0 || rep2.Unrepairable != 0 {
		t.Fatalf("second scrub pass not clean: %+v", rep2)
	}

	feedAll(seg2, total)

	// Acceptance: every session's final bytes match the baseline.
	for _, id := range ids {
		if err := coord.Drain(id); err != nil {
			t.Fatal(err)
		}
		got, err := coord.Checkpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantFinal) {
			t.Fatalf("session %q final checkpoint diverged from baseline", id)
		}
	}

	st := coord.Status().Auto
	if !st.Enabled || st.Passes == 0 || st.Moves == 0 || st.Readmitted != 1 ||
		st.Promoted != 1 || st.ScrubChecked == 0 || st.ScrubRepairs == 0 {
		t.Fatalf("autopilot status %+v missing policy counters", st)
	}
}

// --- re-admission races (satellite 4) --------------------------------

// TestReadmitMigrationRace kills a shard while a migration targets it,
// then auto re-admits the restarted shard: the migration must not lose
// the session, concurrent re-admissions must collapse to one, and the
// probation gate must refuse migrations onto the shard.
func TestReadmitMigrationRace(t *testing.T) {
	s0, s1 := bootShard(t, ""), bootShard(t, "")
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
		Shards: []string{s0.addr, s1.addr},
		Stores: []session.CheckpointStore{session.NewMemStore(), session.NewMemStore()},
		Dial:   testDial,
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	frames, sils := leakFrames(4)
	var ids []string
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("race-%02d", i)
		ids = append(ids, id)
		if err := coord.Open(fleet.OpenSpec{ID: id, W: fw, H: fh, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		if err := coord.Migrate(id, s0.addr); err != nil {
			t.Fatal(err)
		}
		if err := coord.Feed(id, core.Frame{Img: frames[0], Oracle: sils[0]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := coord.Replicate(); err != nil {
		t.Fatal(err)
	}

	// Kill the target mid-migration: half the migrations race the kill.
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			// Errors are acceptable (the target is dying); losing the
			// session is not.
			_ = coord.Migrate(id, s1.addr)
		}(id)
	}
	s1.ln.Kill()
	wg.Wait()
	// Every session must still answer wherever it landed.
	for _, id := range ids {
		if err := coord.Feed(id, core.Frame{Img: frames[1], Oracle: sils[1]}); err != nil {
			t.Fatalf("session %q lost after racing kill: %v", id, err)
		}
	}

	// The racing migrations may all have failed at dial without the
	// health machine noticing; a probe pass pins the loss down.
	for i := 0; len(coord.Down()) == 0 && i < 50; i++ {
		coord.ProbeOnce()
	}
	if down := coord.Down(); len(down) != 1 || down[0] != s1.addr {
		t.Fatalf("down = %v, want [%s]", down, s1.addr)
	}

	// Restart the shard and re-admit it concurrently from two racers:
	// exactly one Readmit wins.
	s1b := bootShard(t, s1.addr)
	var ok, failed int
	var mu sync.Mutex
	wg = sync.WaitGroup{}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := coord.Readmit(s1b.addr)
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				ok++
			} else {
				failed++
			}
		}()
	}
	wg.Wait()
	if ok != 1 || failed != 1 {
		t.Fatalf("concurrent readmits: %d succeeded, %d refused; want exactly one winner", ok, failed)
	}
	if err := coord.Migrate(ids[0], s1b.addr); err == nil || !strings.Contains(err.Error(), "probation") {
		t.Fatalf("migrate onto probation shard: %v, want probation refusal", err)
	}
	if err := coord.Promote(s1b.addr); err != nil {
		t.Fatalf("promote: %v", err)
	}
	// Fully back: migrations onto it work again and the session lives.
	if err := coord.Migrate(ids[0], s1b.addr); err != nil {
		t.Fatalf("migrate after promote: %v", err)
	}
	if err := coord.Feed(ids[0], core.Frame{Img: frames[2], Oracle: sils[2]}); err != nil {
		t.Fatal(err)
	}
}

// TestDeposedCoordinatorFenced: a coordinator that loses the lease is
// refused everywhere — locally the moment the elector self-fences it,
// and at the shards (CodeFenced) even if it never noticed losing the
// lease.
func TestDeposedCoordinatorFenced(t *testing.T) {
	s0, s1 := bootShard(t, ""), bootShard(t, "")
	stores := []session.CheckpointStore{session.NewMemStore(), session.NewMemStore()}
	qs, err := session.NewQuorumStore(stores, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	clk := faultinject.NewFakeClock(time.Unix(1_754_600_000, 0))

	c1, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
		Shards: []string{s0.addr, s1.addr},
		Store:  qs,
		Dial:   testDial,
		Epoch:  1,
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	e1 := newTestElector(t, qs, clk, "coord-1", nil, c1.Depose)
	if err := e1.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := c1.Open(fleet.OpenSpec{ID: "call-a", W: fw, H: fh, Seed: 1}); err != nil {
		t.Fatal(err)
	}

	// The lease expires while c1 stalls; a successor claims it and
	// takes over the fleet — fencing every shard at the lease epoch.
	clk.Advance(11 * time.Second)
	var c2 *fleet.Coordinator
	e2 := newTestElector(t, qs, clk, "coord-2", func(term, epoch uint64) {
		var terr error
		c2, terr = fleet.TakeOver(fleet.CoordinatorConfig{
			Store: qs,
			Dial:  testDial,
			Epoch: epoch,
			Logf:  t.Logf,
		})
		if terr != nil {
			t.Errorf("takeover: %v", terr)
		}
	}, nil)
	if err := e2.Tick(); err != nil {
		t.Fatal(err)
	}
	if c2 == nil {
		t.Fatal("successor never took over")
	}
	defer c2.Close()

	// Shard-side fencing: c1 has NOT ticked yet — it still believes it
	// leads — but its mutations die at the shards with CodeFenced.
	err = c1.Migrate("call-a", s1.addr)
	if err == nil {
		// The session may already live on s1; force a mutation through
		// the other shard instead.
		err = c1.Migrate("call-a", s0.addr)
	}
	if !errors.Is(err, fleet.ErrDeposed) {
		t.Fatalf("stale coordinator mutation: %v, want ErrDeposed via shard fencing", err)
	}

	// Lease-side fencing: c1's next tick notices and self-fences; Join
	// is refused before any wire traffic.
	if err := e1.Tick(); err != nil {
		t.Fatal(err)
	}
	if ok, _ := e1.Leading(); ok {
		t.Fatal("e1 still believes it leads")
	}
	if err := c1.Join("127.0.0.1:1"); !errors.Is(err, fleet.ErrDeposed) {
		t.Fatalf("deposed coordinator Join: %v, want ErrDeposed", err)
	}
	// The successor works.
	if err := c2.Feed("call-a", core.Frame{Img: imagex.NewFilled(fw, fh, imagex.RGB{R: 20, G: 120, B: 220}), Oracle: imagex.NewMask(fw, fh)}); err != nil {
		t.Fatalf("successor feed: %v", err)
	}
}

// TestDeposedCoordinatorRunsNoPolicy: once its coordinator is deposed,
// the autopilot runs no policy pass even while its elector holds the
// lease (won back before the caller stopped serving) — the deposed
// coordinator's routed ids are stale, and a scrub would sweep the
// checkpoints of sessions its successor opened.
func TestDeposedCoordinatorRunsNoPolicy(t *testing.T) {
	s0 := bootShard(t, "")
	qs, err := session.NewQuorumStore([]session.CheckpointStore{session.NewMemStore(), session.NewMemStore()}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	clk := faultinject.NewFakeClock(time.Unix(1_754_600_000, 0))
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{Shards: []string{s0.addr}, Store: qs, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	e := newTestElector(t, qs, clk, "coord-1", nil, nil)
	if err := e.Tick(); err != nil {
		t.Fatal(err)
	}
	ap, err := New(Config{Coordinator: coord, Elector: e, Clock: clk, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Close()
	if _, err := ap.ScrubOnce(); err != nil {
		t.Fatalf("scrub while leading: %v", err)
	}
	coord.Depose()
	if ok, _ := e.Leading(); !ok {
		t.Fatal("elector lost the lease")
	}
	if _, err := ap.ScrubOnce(); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("scrub on a deposed coordinator = %v, want ErrNotLeader", err)
	}
	if _, err := ap.PlanOnce(); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("plan on a deposed coordinator = %v, want ErrNotLeader", err)
	}
	if _, _, err := ap.ReadmitOnce(); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("readmit on a deposed coordinator = %v, want ErrNotLeader", err)
	}
}

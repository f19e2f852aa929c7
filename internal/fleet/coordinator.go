package fleet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bgbuster/bgbuster/internal/core"
	"github.com/bgbuster/bgbuster/internal/session"
)

// ErrNoShards is returned when every shard is marked down.
var ErrNoShards = errors.New("fleet: no live shards")

// CoordinatorConfig configures a routing coordinator.
type CoordinatorConfig struct {
	// Shards are the worker addresses the ring is built over (required,
	// at least one).
	Shards []string
	// Vnodes per shard on the hash ring (<=0: 64).
	Vnodes int
	// Limits bounds decode budgets for shard responses (zero: defaults).
	Limits Limits
	// Store replicates session checkpoints (Replicate pulls .bbck bytes
	// from shards into it; shard-loss recovery resumes from it). Nil:
	// in-memory store — recovery then survives shard loss but not
	// coordinator loss.
	Store session.CheckpointStore
	// Stores, when non-empty, overrides Store with a quorum store
	// writing each checkpoint to ReplicaFactor of them and requiring
	// WriteQuorum successes (session.NewQuorumStore) — checkpoints then
	// survive replica loss, and a successor coordinator can TakeOver from
	// any surviving replica.
	Stores []session.CheckpointStore
	// ReplicaFactor is N, the stores written per checkpoint (<=0: all).
	ReplicaFactor int
	// WriteQuorum is W, the successes required per write (<=0: majority
	// of ReplicaFactor).
	WriteQuorum int
	// Health sets the shard probe cadence and the probe jitter seed
	// (zero fields: defaults).
	Health HealthConfig
	// Weights are initial per-shard capacity weights for weighted
	// vnodes (missing/<=0: 1; clamped to maxWeight). SetWeight changes
	// them live.
	Weights map[string]int
	// LoadTimeout bounds one shard's sample inside Status (<=0: 3s).
	// Sampling uses short dedicated connections so a slow shard costs
	// one placeholder row, never a hung stats command.
	LoadTimeout time.Duration
	// Epoch is this coordinator's fencing epoch (0: 1). Every shard
	// connection declares it before carrying requests; shards reject
	// mutating requests from connections fenced below the highest epoch
	// they have seen, so a deposed coordinator's stale migrations die at
	// the shard instead of racing its successor's. TakeOver picks the
	// successor epoch automatically.
	Epoch uint64
	// Dial opens a client to a shard (nil: Dial over TCP, with the
	// default Timeouts). Injectable for tests.
	Dial func(addr string, lim Limits) (*Client, error)
	// Logf receives routing and recovery diagnostics (nil: silent).
	Logf func(format string, args ...any)
}

// Coordinator consistent-hashes session ids onto worker shards and
// proxies the wire protocol to them. It layers three fleet behaviours
// on top of routing (DESIGN.md §15):
//
//   - Replication: Replicate pulls every session's current .bbck bytes
//     into the checkpoint store — the recovery floor.
//   - Live migration: Migrate detaches a running session from its
//     shard (drain + checkpoint + remove, no finalize), resumes it
//     bit-identically on the target, then atomically flips the route.
//   - Shard-loss recovery: a transport failure marks the shard down
//     and re-resumes every session it routed from the last replicated
//     checkpoint onto the survivors — the same supervisor pattern the
//     session layer applies to crashed workers, lifted one level up.
//
// Coordinator implements Handler, so Serve can front it with the same
// wire protocol the shards speak.
type Coordinator struct {
	cfg   CoordinatorConfig
	epoch uint64 // fencing epoch, immutable after construction

	// The placement table (membership.go): the ring plus one record per
	// shard and one per session.
	mu       sync.Mutex
	ring     *Ring
	shards   map[string]*shard
	sessions map[string]*placement

	statusMu sync.Mutex
	statusFn func() AutopilotInfo // autopilot status provider (nil: none)

	deposed atomic.Bool // a peer reported a higher fencing epoch

	stop     chan struct{}
	stopOnce sync.Once
	probeWG  sync.WaitGroup

	migrations  atomic.Uint64
	recoveries  atomic.Uint64 // sessions re-resumed after shard loss
	reopened    atomic.Uint64 // sessions lost with no checkpoint, reopened fresh
	shardsLost  atomic.Uint64
	recoverFail atomic.Uint64
	transitions [len(opNames)]atomic.Uint64 // completed transitions per shardOp
	orphanDels  atomic.Uint64               // checkpoint deletes that left orphaned replicas
}

// NewCoordinator validates the config and builds the ring.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("fleet: CoordinatorConfig.Shards is required")
	}
	seen := map[string]bool{}
	for _, a := range cfg.Shards {
		if seen[a] {
			return nil, fmt.Errorf("fleet: duplicate shard address %q", a)
		}
		seen[a] = true
	}
	cfg.Limits = cfg.Limits.withDefaults()
	if len(cfg.Stores) > 0 {
		qs, err := session.NewQuorumStore(cfg.Stores, cfg.ReplicaFactor, cfg.WriteQuorum)
		if err != nil {
			return nil, err
		}
		cfg.Store = qs
	}
	if cfg.Store == nil {
		cfg.Store = session.NewMemStore()
	}
	if cfg.LoadTimeout <= 0 {
		cfg.LoadTimeout = 3 * time.Second
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = 1
	}
	if cfg.Dial == nil {
		cfg.Dial = Dial
	}
	c := &Coordinator{
		cfg:      cfg,
		epoch:    cfg.Epoch,
		shards:   map[string]*shard{},
		sessions: map[string]*placement{},
		stop:     make(chan struct{}),
	}
	for _, a := range cfg.Shards {
		c.shards[a] = &shard{weight: clampWeight(cfg.Weights[a])}
	}
	c.ring = c.ringLocked()
	if cfg.Health.ProbeInterval > 0 {
		c.probeWG.Add(1)
		go c.probeLoop()
	}
	return c, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// clampWeight normalises a capacity weight into [1, maxWeight].
func clampWeight(w int) int {
	if w <= 0 {
		return 1
	}
	if w > maxWeight {
		return maxWeight
	}
	return w
}

// routeLocked returns the shard currently owning id. Caller holds c.mu.
// A pin survives even onto a draining shard (that is the pin's job
// during the two-phase flip) but not onto a lost one; ring lookups skip
// every shard that takes no new placements.
func (c *Coordinator) routeLocked(id string) string {
	if p := c.sessions[id]; p != nil && p.pin != "" {
		if s := c.shards[p.pin]; s != nil && s.role != RoleDown {
			return p.pin
		}
	}
	return c.homeLocked(id)
}

// RouteOf returns the shard address a session currently routes to
// ("" when every shard is down).
func (c *Coordinator) RouteOf(id string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.routeLocked(id)
}

// clientLocked returns (dialing if needed) the cached client for addr.
// A fresh connection immediately declares the coordinator's fencing
// epoch; a CodeFenced rejection means a successor holds a higher epoch
// — this coordinator is deposed and stops mutating the fleet.
// Caller holds c.mu.
func (c *Coordinator) clientLocked(addr string) (*Client, error) {
	s := c.shards[addr]
	if s == nil {
		return nil, fmt.Errorf("fleet: %s is not a fleet member", addr)
	}
	if s.client != nil {
		return s.client, nil
	}
	cl, err := c.cfg.Dial(addr, c.cfg.Limits)
	if err != nil {
		return nil, err
	}
	if err := cl.Fence(c.epoch); err != nil {
		cl.Close()
		return nil, c.fenced(addr, err)
	}
	s.client = cl
	return cl, nil
}

// fenced turns a CodeFenced rejection from addr into ErrDeposed — a
// successor holds a higher epoch — and marks this coordinator deposed.
// Any other error passes through.
func (c *Coordinator) fenced(addr string, err error) error {
	var remote *RemoteError
	if errors.As(err, &remote) && remote.Code == CodeFenced {
		c.deposed.Store(true)
		return fmt.Errorf("%w: %s: %s", ErrDeposed, addr, remote.Text)
	}
	return err
}

// doRouted runs one request against the shard owning id under the one
// failure rule. A *RemoteError means the shard answered: it goes back
// to the caller (CodeFenced as ErrDeposed). Any other failure of the
// dial, fence or round trip — refused, reset, closed or past its
// deadline — is shard loss: the shard goes down, its sessions recover
// onto survivors from the store, and the request goes to the new
// route. The stalled shard's copy, which the request may have reached,
// is abandoned there, as after a partition. The loop is bounded — each
// iteration either answers or permanently removes one shard.
func (c *Coordinator) doRouted(id string, req *Message, want MsgType) (*Message, error) {
	if c.deposed.Load() {
		return nil, ErrDeposed
	}
	bound := -1
	for attempt := 0; ; attempt++ {
		// Wait out any migration holding the session's gate, so a frame
		// is neither double-fed to the source nor dropped at the target
		// during the two-phase route flip; then route and fetch the
		// client under the same acquisition.
		c.mu.Lock()
		for p := c.sessions[id]; p != nil && p.gate != nil; p = c.sessions[id] {
			g := p.gate
			c.mu.Unlock()
			<-g
			c.mu.Lock()
		}
		if bound < 0 {
			bound = len(c.shards)
		}
		addr := c.routeLocked(id)
		if attempt > bound || addr == "" {
			c.mu.Unlock()
			return nil, ErrNoShards
		}
		cl, err := c.clientLocked(addr)
		c.mu.Unlock()
		var resp *Message
		if err == nil {
			resp, err = cl.do(req)
		}
		var remote *RemoteError
		switch {
		case err == nil:
			if resp.Type != want {
				return nil, fmt.Errorf("fleet: %s: response type 0x%02x, want 0x%02x: %w",
					addr, byte(resp.Type), byte(want), ErrBadMessage)
			}
			return resp, nil
		case errors.As(err, &remote):
			return nil, c.fenced(addr, err)
		case errors.Is(err, ErrDeposed):
			return nil, err
		}
		c.logf("fleet: shard %s unreachable (%v); recovering", addr, err)
		c.handleShardLoss(addr)
	}
}

// handleShardLoss marks addr down and re-resumes every session it
// routed onto the survivors from the last replicated checkpoint (or a
// fresh open when none was ever taken). Sessions whose recovery fails
// on a survivor stay routed there and surface errors on their next
// request — the ring never wedges on one bad session.
func (c *Coordinator) handleShardLoss(addr string) {
	c.mu.Lock()
	s := c.shards[addr]
	if s == nil || s.role == RoleDown {
		c.mu.Unlock()
		return
	}
	// Collect the orphaned sessions: everything whose current route —
	// pin or ring arc — points at the lost shard. Ids mid-migration
	// (holding a gate) are skipped: the migration in flight owns their
	// recovery and will fall back to the store itself.
	var orphans []string
	for id, p := range c.sessions {
		if p.gate == nil && c.routeLocked(id) == addr {
			orphans = append(orphans, id)
		}
	}
	sort.Strings(orphans)
	// A probation shard that dies again forfeits its probation. The
	// pins recorded for it point at other (live) shards; the ring now
	// skips addr, so a pin that names its session's new ring home is
	// cleared, leaving that session to move with the ring like any other
	// when addr joins again.
	c.loseLocked(addr)
	for id, p := range c.sessions {
		if p.gate == nil && p.pin != "" && p.pin == c.homeLocked(id) {
			p.pin = ""
		}
	}
	c.shardsLost.Add(1)
	c.mu.Unlock()

	for _, id := range orphans {
		if err := c.recoverSession(id); err != nil {
			c.recoverFail.Add(1)
			c.logf("fleet: recover %q after loss of %s: %v", id, addr, err)
		}
	}
}

// recoverSession re-homes one session after shard loss: resume from
// the replicated checkpoint when one exists, otherwise reopen fresh
// from the recorded spec (everything since open is lost — the case
// Replicate exists to bound).
func (c *Coordinator) recoverSession(id string) error {
	c.mu.Lock()
	p := c.sessions[id]
	if p == nil {
		c.mu.Unlock()
		return fmt.Errorf("fleet: no spec recorded for %q", id)
	}
	addr := c.routeLocked(id)
	if addr == "" {
		c.mu.Unlock()
		return ErrNoShards
	}
	cl, err := c.clientLocked(addr)
	c.mu.Unlock()
	if err != nil {
		return err
	}

	ckpt, lerr := c.cfg.Store.Load(id)
	if lerr == nil {
		err = cl.Resume(p.spec, ckpt)
	} else {
		err = cl.Open(p.spec)
	}
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.settleLocked(p, id, addr)
	c.mu.Unlock()
	if lerr == nil {
		c.recoveries.Add(1)
		c.logf("fleet: session %q re-resumed on %s from replicated checkpoint", id, addr)
	} else {
		c.reopened.Add(1)
		c.logf("fleet: session %q reopened fresh on %s (no replicated checkpoint)", id, addr)
	}
	return nil
}

// Open opens a fresh session on the shard owning spec.ID and records
// the spec for recovery.
func (c *Coordinator) Open(spec OpenSpec) error {
	return c.admit(spec, &Message{Type: MsgOpen, Spec: spec})
}

// Resume registers a session from caller-provided checkpoint bytes
// (external ingest of a .bbck; fleet-internal recovery uses the store).
func (c *Coordinator) Resume(spec OpenSpec, ckpt []byte) error {
	if err := c.admit(spec, &Message{Type: MsgResume, Spec: spec, Ckpt: ckpt}); err != nil {
		return err
	}
	return c.cfg.Store.Save(spec.ID, ckpt)
}

// admit places a new session on the shard owning spec.ID and records
// it in the placement table.
func (c *Coordinator) admit(spec OpenSpec, req *Message) error {
	c.mu.Lock()
	_, exists := c.sessions[spec.ID]
	c.mu.Unlock()
	if exists {
		return &RemoteError{Code: CodeExists, Text: fmt.Sprintf("session %q already routed", spec.ID)}
	}
	if _, err := c.doRouted(spec.ID, req, MsgOK); err != nil {
		return err
	}
	c.mu.Lock()
	c.sessions[spec.ID] = &placement{spec: spec}
	c.mu.Unlock()
	c.saveMeta()
	return nil
}

// Feed delivers one frame to a session as a batch of one.
func (c *Coordinator) Feed(id string, f core.Frame) error { return c.FeedN(id, []core.Frame{f}) }

// FeedN delivers an ordered batch to a session, wherever it lives.
func (c *Coordinator) FeedN(id string, frames []core.Frame) error {
	_, err := c.doRouted(id, &Message{Type: MsgFeed, Spec: OpenSpec{ID: id}, Frames: frames}, MsgOK)
	return err
}

// Snapshot fetches a session's counters.
func (c *Coordinator) Snapshot(id string) (SnapInfo, error) {
	resp, err := c.doRouted(id, &Message{Type: MsgSnapshot, Spec: OpenSpec{ID: id}}, MsgSnapResp)
	if err != nil {
		return SnapInfo{}, err
	}
	return resp.Snap, nil
}

// Checkpoint fetches a session's current .bbck bytes (session keeps
// running) and replicates them into the store.
func (c *Coordinator) Checkpoint(id string) ([]byte, error) {
	resp, err := c.doRouted(id, &Message{Type: MsgCheckpoint, Spec: OpenSpec{ID: id}}, MsgCkptResp)
	if err != nil {
		return nil, err
	}
	if serr := c.cfg.Store.Save(id, resp.Ckpt); serr != nil {
		return resp.Ckpt, fmt.Errorf("fleet: replicate %q: %w", id, serr)
	}
	return resp.Ckpt, nil
}

// Drain blocks until every frame fed to the session has been processed.
func (c *Coordinator) Drain(id string) error {
	_, err := c.doRouted(id, &Message{Type: MsgDrain, Spec: OpenSpec{ID: id}}, MsgOK)
	return err
}

// CloseSession finalizes and removes a session fleet-wide: the shard
// finalizes it, the route and spec are forgotten, and the replicated
// checkpoint is deleted.
func (c *Coordinator) CloseSession(id string) error {
	_, err := c.doRouted(id, &Message{Type: MsgClose, Spec: OpenSpec{ID: id}}, MsgOK)
	if err != nil {
		return err
	}
	c.forget(id)
	return c.deleteCheckpoint(id)
}

// Detach drains and removes a session without finalizing and hands its
// .bbck bytes to the caller, which takes ownership (the fleet forgets
// the session).
func (c *Coordinator) Detach(id string) ([]byte, error) {
	resp, err := c.doRouted(id, &Message{Type: MsgDetach, Spec: OpenSpec{ID: id}}, MsgCkptResp)
	if err != nil {
		return nil, err
	}
	c.forget(id)
	return resp.Ckpt, c.deleteCheckpoint(id)
}

// deleteCheckpoint removes the id's replicated checkpoint. An
// *OrphanError — logical removal succeeded, some replica copies leaked
// — is absorbed here: the session is gone either way, the leak is
// counted (Status reports it as Auto.OrphanDels) and logged, and the
// autopilot scrubber sweeps the leftover copies on its next pass.
func (c *Coordinator) deleteCheckpoint(id string) error {
	err := c.cfg.Store.Delete(id)
	var orphan *session.OrphanError
	if errors.As(err, &orphan) {
		c.orphanDels.Add(1)
		c.logf("fleet: delete %q: %d replica(s) orphaned (scrub will sweep): %v", id, orphan.Leftover, orphan.Err)
		return nil
	}
	return err
}

// forget drops a session that left the fleet, and with it the record
// of a draining shard it was the last session on.
func (c *Coordinator) forget(id string) {
	c.mu.Lock()
	addr := c.routeLocked(id)
	delete(c.sessions, id)
	c.reapDrainedLocked(addr)
	c.mu.Unlock()
	c.saveMeta()
}

// Replicate pulls every routed session's current checkpoint into the
// store — the floor shard-loss recovery resumes from. Transport
// failures trigger the same shard-loss handling as any routed request;
// per-session errors are joined, not fatal.
func (c *Coordinator) Replicate() error {
	var errs []error
	for _, id := range c.RoutedIDs() {
		if _, err := c.Checkpoint(id); err != nil {
			errs = append(errs, fmt.Errorf("replicate %q: %w", id, err))
		}
	}
	return errors.Join(errs...)
}

// Migrate live-migrates a session onto shard addr: drain + detach on
// the source (bit-exact .bbck, no finalize), resume on the target,
// then atomically flip the route. On a target-side failure the session
// is resumed back on the source, so a failed migration never loses the
// session. The detached bytes are also replicated — a migration
// produces a fresh checkpoint for free. Concurrent requests for the id
// wait out the handover instead of racing it.
func (c *Coordinator) Migrate(id string, addr string) error {
	c.mu.Lock()
	_, open := c.sessions[id]
	s := c.memberLocked(addr)
	var err error
	switch {
	case !open:
		err = &RemoteError{Code: CodeNoSession, Text: fmt.Sprintf("session %q not routed", id)}
	case s == nil:
		err = fmt.Errorf("fleet: migrate %q: %s is not a fleet member", id, addr)
	case s.role == RoleDown:
		err = fmt.Errorf("fleet: migrate %q: target %s is down", id, addr)
	case s.role == RoleProbation:
		err = fmt.Errorf("fleet: migrate %q: target %s is in probation (new sessions only)", id, addr)
	}
	c.mu.Unlock()
	if err != nil {
		return err
	}
	return c.migrateSession(id, addr)
}

// Down returns the addresses currently marked down, sorted.
func (c *Coordinator) Down() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shardsLocked(RoleDown)
}

// Status is the one fleet status snapshot: the fencing epoch, the
// migration count and the autopilot state, plus one row per shard
// record in address order — draining shards included, so a session a
// failed drain left behind stays visible. The table is read once under
// c.mu; every shard not down is then sampled passively (sampleShard),
// all rows concurrently. Down shards and shards that fail to answer
// within LoadTimeout get placeholder rows with Err set — the
// graceful-degradation contract `bgbuster stats` renders as DOWN/?
// rows. Status never marks a shard down: shard loss stays the
// prober's and the request path's to declare.
func (c *Coordinator) Status() Status {
	st := Status{Epoch: c.epoch, Migrations: c.migrations.Load() + c.recoveries.Load()}
	c.statusMu.Lock()
	fn := c.statusFn
	c.statusMu.Unlock()
	if fn != nil {
		st.Auto = fn()
	}
	st.Auto.OrphanDels = c.orphanDels.Load()

	c.mu.Lock()
	for _, a := range c.shardsLocked(RoleActive, RoleProbation, RoleDraining, RoleDown) {
		s := c.shards[a]
		row := ShardStatus{Addr: a, Role: s.role, Weight: uint16(s.weight)}
		if s.role == RoleDown {
			row.Err = "down"
		}
		st.Shards = append(st.Shards, row)
	}
	c.mu.Unlock()

	// One sampler per row, each writing only its own row, so a snapshot
	// waits one LoadTimeout however many shards are stalled.
	var wg sync.WaitGroup
	for i := range st.Shards {
		row := &st.Shards[i]
		if row.Err != "" {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sample, err := c.sampleShard(row.Addr)
			if err != nil {
				row.Err = err.Error()
				return
			}
			row.Mem, row.FeedMicros, row.Sess = sample.Mem, sample.FeedMicros, sample.Sess
			row.Opened, row.Restores, row.Restarts = sample.Opened, sample.Restores, sample.Restarts
		}()
	}
	wg.Wait()
	return st
}

// sampleShard fetches one shard's own status row over a short
// dedicated connection. The LoadTimeout deadline is what keeps one
// slow shard from stalling the whole snapshot.
func (c *Coordinator) sampleShard(addr string) (ShardStatus, error) {
	t := Timeouts{Dial: c.cfg.LoadTimeout, Read: c.cfg.LoadTimeout, Write: c.cfg.LoadTimeout}
	cl, err := DialTimeouts(addr, c.cfg.Limits, t)
	if err != nil {
		return ShardStatus{}, err
	}
	defer cl.Close()
	return cl.shardStatus()
}

// Recoveries returns (sessions re-resumed from checkpoints, sessions
// reopened fresh because no checkpoint existed, recovery failures)
// since start.
func (c *Coordinator) Recoveries() (resumed, reopened, failed uint64) {
	return c.recoveries.Load(), c.reopened.Load(), c.recoverFail.Load()
}

// Migrations returns completed live migrations since start.
func (c *Coordinator) Migrations() uint64 { return c.migrations.Load() }

// Probation returns the shards currently in probation, sorted.
func (c *Coordinator) Probation() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shardsLocked(RoleProbation)
}

// Store exposes the coordinator's checkpoint store — what the
// autopilot scrubber walks.
func (c *Coordinator) Store() session.CheckpointStore { return c.cfg.Store }

// RoutedIDs returns every session id the coordinator currently routes,
// sorted — the scrubber's live set.
func (c *Coordinator) RoutedIDs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]string, 0, len(c.sessions))
	for id := range c.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// SetStatusProvider registers the autopilot's status hook; Status
// reports its policy state through it, folding in the coordinator-side
// orphaned-delete counter. A nil provider reports a zero (disabled)
// autopilot state.
func (c *Coordinator) SetStatusProvider(fn func() AutopilotInfo) {
	c.statusMu.Lock()
	c.statusFn = fn
	c.statusMu.Unlock()
}

// Members returns the current ring membership, sorted.
func (c *Coordinator) Members() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.membersLocked()
}

// Epoch returns the coordinator's fencing epoch.
func (c *Coordinator) Epoch() uint64 { return c.epoch }

// Deposed reports whether a peer rejected this coordinator's epoch —
// a successor with a higher epoch owns the fleet now, and every
// subsequent operation here fails with ErrDeposed.
func (c *Coordinator) Deposed() bool { return c.deposed.Load() }

// Depose self-fences the coordinator: every subsequent mutation fails
// with ErrDeposed. The lease elector calls this the moment it observes
// a successor holding the lease — belt to the shard-side fencing's
// suspenders, closing the window between losing the lease and the
// first CodeFenced rejection.
func (c *Coordinator) Depose() { c.deposed.Store(true) }

// Handle implements Handler, fronting the coordinator with the same
// wire protocol the shards speak (bgbuster serve).
func (c *Coordinator) Handle(req *Message) *Message {
	switch req.Type {
	case MsgPing:
		return okMsg()
	case MsgStatus:
		return &Message{Type: MsgStatusResp, Status: c.Status()}
	case MsgJoin:
		return wireStatus(c.Join(req.Addr))
	case MsgDrainShard:
		return wireStatus(c.DrainShard(req.Addr))
	case MsgSetWeight:
		return wireStatus(c.SetWeight(req.Addr, int(req.Weight)))
	case MsgOpen:
		return wireStatus(c.Open(req.Spec))
	case MsgResume:
		return wireStatus(c.Resume(req.Spec, req.Ckpt))
	case MsgFeed:
		return wireStatus(c.FeedN(req.Spec.ID, req.Frames))
	case MsgSnapshot:
		snap, err := c.Snapshot(req.Spec.ID)
		if err != nil {
			return wireStatus(err)
		}
		return &Message{Type: MsgSnapResp, Snap: snap}
	case MsgCheckpoint:
		ckpt, err := c.Checkpoint(req.Spec.ID)
		if err != nil {
			return wireStatus(err)
		}
		return &Message{Type: MsgCkptResp, Ckpt: ckpt}
	case MsgDetach:
		ckpt, err := c.Detach(req.Spec.ID)
		if err != nil {
			return wireStatus(err)
		}
		return &Message{Type: MsgCkptResp, Ckpt: ckpt}
	case MsgDrain:
		return wireStatus(c.Drain(req.Spec.ID))
	case MsgClose:
		return wireStatus(c.CloseSession(req.Spec.ID))
	default:
		return errMsg(CodeBadReq, fmt.Sprintf("unexpected message type 0x%02x", byte(req.Type)))
	}
}

// wireStatus maps a coordinator-level error onto a wire response,
// preserving remote codes end to end.
func wireStatus(err error) *Message {
	if err == nil {
		return okMsg()
	}
	var remote *RemoteError
	if errors.As(err, &remote) {
		return errMsg(remote.Code, remote.Text)
	}
	if errors.Is(err, ErrNoShards) {
		return errMsg(CodeAdmission, err.Error())
	}
	if errors.Is(err, ErrDeposed) {
		return errMsg(CodeFenced, err.Error())
	}
	return errMsg(CodeInternal, err.Error())
}

// Close stops the probe loop and closes every cached shard connection.
// Shards themselves keep running; this only tears down the
// coordinator's side.
func (c *Coordinator) Close() error {
	c.stopOnce.Do(func() { close(c.stop) })
	c.probeWG.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	var errs []error
	for _, s := range c.shards {
		if s.client != nil {
			errs = append(errs, s.client.Close())
			s.client = nil
		}
	}
	return errors.Join(errs...)
}

package fleet

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// The placement table (DESIGN.md §17). The coordinator's routing state
// is the hash ring plus two records under c.mu: one per shard and one
// per session. Every membership change — Join, SetWeight, Readmit,
// Promote, DrainShard — runs through transitionLocked, a two-phase
// route flip:
//
//  1. Pin: under the lock, record every unpinned session's current
//     placement, apply the state change, rebuild the ring, and pin each
//     session whose placement moved to the shard it lives on. From this
//     instant new placements use the new state, but every live session
//     still routes exactly where it lives — no frame is double-fed or
//     dropped while the ring and reality disagree.
//  2. Migrate: migrateHome hands each returned session over with the
//     checkpoint migration primitive (detach -> resume -> flip) behind a
//     per-id gate that concurrent requests wait on.
//
// Only sessions whose placement actually moves migrate — the
// consistent-hash minimal-movement property, verified by
// TestRingJoinMovesMinimally.

// Role is a shard's place in the membership lifecycle (ShardStatus
// reports it per shard):
//
//	(new) --Join--> active --loss--> down --Readmit--> probation --Promote--> active
//	                                 down --Join--> active
//	active|probation|draining --DrainShard--> draining --> removed
//	down --DrainShard--> removed
//	draining --loss--> removed
type Role uint8

const (
	RoleActive    Role = iota // on the ring, takes any placement
	RoleProbation             // on the ring, new sessions only; existing ones pinned off
	RoleDraining              // off the ring; its sessions are migrating away
	RoleDown                  // lost: on the ring but skipped until Readmit or Join
)

func (r Role) String() string {
	return [...]string{"active", "probation", "draining", "down"}[r]
}

// shard is one shard's record. A zero record is a healthy active shard.
type shard struct {
	role   Role
	weight int      // capacity weight for weighted vnodes, in [1, maxWeight]
	client *Client  // cached, fenced connection (nil: dial on demand)
	pins   []string // probation: ids pinned off this shard at Readmit
}

// setRole moves the record to role. Any role change ends a probation,
// whose pins either go to Promote or stay as plain route overrides.
func (s *shard) setRole(role Role) { s.role, s.pins = role, nil }

func (s *shard) dropClient() {
	if s.client != nil {
		s.client.Close()
		s.client = nil
	}
}

// placement is one session's record.
type placement struct {
	spec OpenSpec
	pin  string        // route override ("": follow the ring)
	gate chan struct{} // non-nil while a migration owns the session
}

// loseLocked is the shard-loss state change: addr stops routing and its
// connection is dropped. A lost draining shard leaves the fleet — the
// loss recovers whatever its drain failed to move — so its address can
// Join again. Caller holds c.mu.
func (c *Coordinator) loseLocked(addr string) {
	s := c.shards[addr]
	s.dropClient()
	if s.role == RoleDraining {
		delete(c.shards, addr)
		return
	}
	s.setRole(RoleDown)
}

// eligible reports whether addr takes new placements. Caller holds c.mu.
func (c *Coordinator) eligible(addr string) bool {
	s := c.shards[addr]
	return s != nil && (s.role == RoleActive || s.role == RoleProbation)
}

// homeLocked returns id's ring home: the first eligible shard on its
// arc ("" when none is). Caller holds c.mu.
func (c *Coordinator) homeLocked(id string) string {
	return c.ring.LookupSkip(id, func(a string) bool { return !c.eligible(a) })
}

// memberLocked returns addr's record when addr is a ring member (any
// role but draining), else nil. Caller holds c.mu.
func (c *Coordinator) memberLocked(addr string) *shard {
	if s := c.shards[addr]; s != nil && s.role != RoleDraining {
		return s
	}
	return nil
}

// membersLocked returns the ring members, sorted. Caller holds c.mu.
func (c *Coordinator) membersLocked() []string {
	return c.shardsLocked(RoleActive, RoleProbation, RoleDown)
}

// shardsLocked returns the shards in any of roles, sorted. Caller
// holds c.mu.
func (c *Coordinator) shardsLocked(roles ...Role) []string {
	var out []string
	for a, s := range c.shards {
		if slices.Contains(roles, s.role) {
			out = append(out, a)
		}
	}
	sort.Strings(out)
	return out
}

// shardOp names a membership operation run through transitionLocked.
type shardOp uint8

const (
	opJoin shardOp = iota
	opSetWeight
	opReadmit
	opPromote
	opDrain
)

var opNames = [...]string{"join", "set-weight", "readmit", "promote", "drain"}

// transitionLocked is the one membership transition. It checks that op
// is legal from addr's current role, then
//
//  1. records every unpinned session's current placement,
//  2. applies the state change and rebuilds the ring,
//  3. pins each session whose placement moved to where it lives,
//
// and returns the sessions the caller must migrate home, sorted: the
// moved sessions (Join, SetWeight), the sessions pinned off a promoted
// shard (Promote), or every session living on a draining shard
// (DrainShard; draining a down shard removes its record and returns
// none). Readmit returns none — its moved sessions stay pinned
// off the probation shard until Promote. Every session not returned
// routes exactly where it did before the call. Caller holds c.mu.
func (c *Coordinator) transitionLocked(op shardOp, addr string, weight int) ([]string, error) {
	s := c.shards[addr]
	if err := c.checkLocked(op, addr, s); err != nil {
		return nil, fmt.Errorf("fleet: %s: %w", opNames[op], err)
	}
	before := make(map[string]string, len(c.sessions))
	for id, p := range c.sessions {
		if p.pin == "" {
			before[id] = c.homeLocked(id)
		}
	}
	var migrate []string
	switch op {
	case opJoin:
		if s == nil {
			s = &shard{weight: clampWeight(c.cfg.Weights[addr])}
			c.shards[addr] = s
		}
		s.setRole(RoleActive)
	case opSetWeight:
		s.weight = weight
	case opReadmit:
		s.setRole(RoleProbation)
	case opPromote:
		migrate = s.pins
		s.setRole(RoleActive)
	case opDrain:
		if s.role == RoleDown {
			// Its sessions were recovered when it went down, so it
			// leaves at once: a draining record is never a lost one.
			s.dropClient()
			delete(c.shards, addr)
		} else {
			s.setRole(RoleDraining)
		}
	}
	c.ring = c.ringLocked()
	var moved []string
	for id, old := range before {
		if old != "" && c.routeLocked(id) != old {
			c.sessions[id].pin = old
			moved = append(moved, id)
		}
	}
	sort.Strings(moved)
	switch op {
	case opReadmit:
		s.pins = moved
	case opDrain:
		for id := range c.sessions {
			if c.routeLocked(id) == addr {
				migrate = append(migrate, id)
			}
		}
	default:
		migrate = append(migrate, moved...)
	}
	sort.Strings(migrate)
	c.transitions[op].Add(1)
	return migrate, nil
}

// checkLocked is the transition table: which roles each op may leave.
// A drain that some session failed to leave may be retried.
func (c *Coordinator) checkLocked(op shardOp, addr string, s *shard) error {
	switch {
	case addr == "":
		return errors.New("empty shard address")
	case op == opJoin:
		if s != nil && s.role != RoleDown {
			return fmt.Errorf("%s is already a member (%s)", addr, s.role)
		}
	case s == nil || s.role == RoleDraining && op != opDrain:
		return fmt.Errorf("%s is not a fleet member", addr)
	case op == opReadmit && s.role != RoleDown:
		return fmt.Errorf("%s is not down", addr)
	case op == opPromote && s.role != RoleProbation:
		return fmt.Errorf("%s is not in probation", addr)
	case op == opDrain && c.eligible(addr):
		for a := range c.shards {
			if a != addr && c.eligible(a) {
				return nil
			}
		}
		return fmt.Errorf("%s is the last live shard", addr)
	}
	return nil
}

// ringLocked builds the weighted ring over the current members.
func (c *Coordinator) ringLocked() *Ring {
	members := c.membersLocked()
	weights := make(map[string]int, len(members))
	for _, a := range members {
		weights[a] = c.shards[a].weight
	}
	return NewRingWeighted(members, weights, c.cfg.Vnodes)
}

// transition runs op through transitionLocked, then migrates the
// returned sessions home; a drained shard that no session still lives
// on is then removed. Per-session migration failures are joined, not
// fatal: a session that fails to move stays pinned where it lives and
// stays served.
func (c *Coordinator) transition(op shardOp, addr string, weight int) error {
	if c.deposed.Load() {
		return ErrDeposed
	}
	c.mu.Lock()
	moving, err := c.transitionLocked(op, addr, weight)
	c.mu.Unlock()
	if err != nil {
		return err
	}
	c.logf("fleet: %s %s: %d session(s) to migrate", opNames[op], addr, len(moving))
	err = c.migrateHome(moving, opNames[op])
	if op == opDrain {
		c.mu.Lock()
		c.reapDrainedLocked(addr)
		c.mu.Unlock()
	}
	c.saveMeta()
	return err
}

// reapDrainedLocked removes addr's record once it is draining and no
// session routes to it: its drain is done, however its last session
// left (migration, close or detach). A record that a loss removed or a
// Join replaced is left alone. Caller holds c.mu.
func (c *Coordinator) reapDrainedLocked(addr string) {
	s := c.shards[addr]
	if s == nil || s.role != RoleDraining {
		return
	}
	// Off the ring, a draining shard is reached only through pins.
	for _, p := range c.sessions {
		if p.pin == addr {
			return
		}
	}
	s.dropClient()
	delete(c.shards, addr)
}

// migrateHome is phase 2 of every transition: each id migrates to its
// ring home behind its gate. Ids closed meanwhile are skipped.
func (c *Coordinator) migrateHome(ids []string, verb string) error {
	var errs []error
	for _, id := range ids {
		c.mu.Lock()
		_, open := c.sessions[id]
		target := c.homeLocked(id)
		c.mu.Unlock()
		switch {
		case !open:
		case target == "":
			errs = append(errs, fmt.Errorf("%s %q: %w", verb, id, ErrNoShards))
		default:
			if err := c.migrateSession(id, target); err != nil {
				errs = append(errs, fmt.Errorf("%s %q: %w", verb, id, err))
			}
		}
	}
	return errors.Join(errs...)
}

// Join adds the shard at addr to the live ring (or returns a down one
// straight to active), migrating exactly the sessions whose placement
// moves onto it.
func (c *Coordinator) Join(addr string) error { return c.transition(opJoin, addr, 0) }

// SetWeight changes the capacity weight of a member shard (weighted
// vnodes: weight 2 owns roughly twice the arc of weight 1) through the
// same transition Join uses, so a weight change is as lossless as a
// membership change.
func (c *Coordinator) SetWeight(addr string, weight int) error {
	return c.transition(opSetWeight, addr, clampWeight(weight))
}

// Promote lifts a shard out of probation: the sessions pinned off it at
// Readmit migrate to their ring homes, and the shard becomes a full
// member again. The autopilot calls this once the quarantine window
// passes cleanly.
func (c *Coordinator) Promote(addr string) error { return c.transition(opPromote, addr, 0) }

// DrainShard migrates every session off the shard at addr and removes
// it from the ring — the graceful exit (shard decommission, rolling
// restart). The shard itself keeps running; it just stops owning
// sessions. Draining a shard already marked down only removes it from
// membership (its sessions were recovered when it went down). A shard
// that some session failed to leave stays draining and keeps serving
// it until DrainShard is retried or the shard is lost.
func (c *Coordinator) DrainShard(addr string) error { return c.transition(opDrain, addr, 0) }

// Rebalances returns (shards joined, shards drained) since start.
func (c *Coordinator) Rebalances() (joined, drained uint64) {
	return c.transitions[opJoin].Load(), c.transitions[opDrain].Load()
}

// Safe shard re-admission (DESIGN.md §18). A shard marked down had all
// of its sessions recovered onto survivors; letting it straight back
// into the ring would hand arcs — and therefore live sessions — to a
// process whose local state is stale. Readmit narrows the door:
//
//  1. Fencing handshake: dialing fences the connection at the
//     coordinator's epoch, so a shard meanwhile claimed by a successor
//     coordinator deposes us here, before any state moves.
//  2. Stale-state scrub: every session still materialised on the shard
//     is detached and discarded — the fleet's recovered copies are
//     authoritative.
//  3. Probation: the transition pins every session whose placement
//     would move onto the shard where it lives, so only NEW placements
//     land there until Promote.

// Readmit returns a down member shard to the ring in probation: the
// shard serves new sessions immediately, while existing sessions stay
// pinned off it until Promote. The fencing handshake and stale-session
// scrub run before any routing changes.
func (c *Coordinator) Readmit(addr string) error {
	if c.deposed.Load() {
		return ErrDeposed
	}
	c.mu.Lock()
	err := c.checkLocked(opReadmit, addr, c.shards[addr])
	var cl *Client
	if err == nil {
		cl, err = c.clientLocked(addr)
	}
	c.mu.Unlock()
	if err == nil {
		err = c.scrubStale(addr, cl)
	}
	if err != nil {
		return fmt.Errorf("fleet: readmit %s: %w", addr, err)
	}
	return c.transition(opReadmit, addr, 0)
}

// scrubStale discards every session a recovered shard still holds from
// before it went down (the fleet re-homed them at loss time). On failure
// the handshake connection is dropped.
func (c *Coordinator) scrubStale(addr string, cl *Client) error {
	row, err := cl.shardStatus()
	for _, s := range row.Sess {
		if err != nil {
			break
		}
		_, err = cl.Detach(s.ID)
		var remote *RemoteError
		if errors.As(err, &remote) && remote.Code == CodeNoSession {
			err = nil
		} else if err == nil {
			c.logf("fleet: readmit %s: discarded stale session %q", addr, s.ID)
		}
	}
	if err != nil {
		c.mu.Lock()
		if s := c.shards[addr]; s != nil {
			s.dropClient()
		}
		c.mu.Unlock()
	}
	return err
}

// Readmissions returns (shards auto re-admitted after down, shards
// promoted out of probation) since start.
func (c *Coordinator) Readmissions() (readmitted, promoted uint64) {
	return c.transitions[opReadmit].Load(), c.transitions[opPromote].Load()
}

// migrateSession is the gated checkpoint-migration primitive behind
// Migrate and every transition: detach from the current shard, resume
// on target, flip the route. While the gate is held, concurrent
// requests for the id wait and shard-loss recovery skips the id —
// exactly one actor owns a session's placement at a time. If the source
// dies mid-handover the session is recovered onto the target from its
// replicated checkpoint instead of being lost.
func (c *Coordinator) migrateSession(id, target string) error {
	// Acquire the gate, waiting out any migration already in flight.
	c.mu.Lock()
	p := c.sessions[id]
	for p != nil && p.gate != nil {
		g := p.gate
		c.mu.Unlock()
		<-g
		c.mu.Lock()
		p = c.sessions[id]
	}
	if p == nil {
		c.mu.Unlock()
		return &RemoteError{Code: CodeNoSession, Text: fmt.Sprintf("session %q not routed", id)}
	}
	gate := make(chan struct{})
	p.gate = gate
	defer func() {
		c.mu.Lock()
		p.gate = nil
		c.mu.Unlock()
		close(gate)
	}()
	src := c.routeLocked(id)
	if src == target {
		c.settleLocked(p, id, target)
	}
	c.mu.Unlock()
	if src == target {
		return nil // already there
	}
	if src == "" {
		return ErrNoShards
	}

	// Detach from the source. Direct client, not doRouted: doRouted
	// would block on the gate we hold.
	var ckpt []byte
	detached := false
	c.mu.Lock()
	scl, err := c.clientLocked(src)
	c.mu.Unlock()
	if err == nil {
		ckpt, err = scl.Detach(id)
		var remote *RemoteError
		switch {
		case err == nil:
			detached = true
		case errors.As(err, &remote):
			return fmt.Errorf("fleet: migrate %q: detach: %w", id, c.fenced(src, err))
		}
	}
	if errors.Is(err, ErrDeposed) {
		return err
	}
	if !detached {
		// The source died mid-handover. Recover its other sessions (we
		// hold this id's gate, so shard loss skips it) and fall back to
		// the last replicated checkpoint for this one.
		c.logf("fleet: migrate %q: source %s unreachable (%v); falling back to replicated checkpoint", id, src, err)
		c.handleShardLoss(src)
		if data, lerr := c.cfg.Store.Load(id); lerr == nil {
			ckpt = data
		}
	}

	// Resume on the target (fresh open when no bytes survived).
	c.mu.Lock()
	tcl, terr := c.clientLocked(target)
	c.mu.Unlock()
	if terr == nil {
		if ckpt != nil {
			terr = tcl.Resume(p.spec, ckpt)
		} else {
			terr = tcl.Open(p.spec)
		}
	}
	if terr != nil {
		if !detached {
			// Nothing to roll back to — the source is gone. The session
			// stays routed by the ring and surfaces errors until a later
			// request or probe recovers it.
			c.recoverFail.Add(1)
			return fmt.Errorf("fleet: migrate %q: source lost and target %s failed: %w", id, target, terr)
		}
		// Roll back: the session must live somewhere. Resume on the
		// source (its route is unchanged, so no flip is needed).
		c.mu.Lock()
		rcl, rerr := c.clientLocked(src)
		c.mu.Unlock()
		if rerr == nil {
			rerr = rcl.Resume(p.spec, ckpt)
		}
		if rerr != nil {
			return fmt.Errorf("fleet: migrate %q: target %s failed (%w) and rollback to %s failed (%w)",
				id, target, terr, src, rerr)
		}
		return fmt.Errorf("fleet: migrate %q: target %s failed, rolled back to %s: %w", id, target, src, terr)
	}

	c.mu.Lock()
	c.settleLocked(p, id, target)
	c.reapDrainedLocked(src)
	c.mu.Unlock()
	c.migrations.Add(1)
	c.logf("fleet: session %q migrated %s -> %s (%d checkpoint bytes)", id, src, target, len(ckpt))
	if ckpt != nil {
		return c.cfg.Store.Save(id, ckpt)
	}
	c.reopened.Add(1)
	return nil
}

// settleLocked is the migration flip: the session lives on addr now.
// The pin is dropped when the ring already homes it there, so future
// transitions see a clean arc, and kept as an override otherwise.
// Caller holds c.mu.
func (c *Coordinator) settleLocked(p *placement, id, addr string) {
	if c.homeLocked(id) == addr {
		p.pin = ""
	} else {
		p.pin = addr
	}
}

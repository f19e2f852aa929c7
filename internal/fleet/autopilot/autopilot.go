package autopilot

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bgbuster/bgbuster/internal/checkpoint"
	"github.com/bgbuster/bgbuster/internal/faultinject"
	"github.com/bgbuster/bgbuster/internal/fleet"
	"github.com/bgbuster/bgbuster/internal/session"
)

// Config configures an autopilot over one coordinator.
type Config struct {
	// Coordinator is the control plane's target (required).
	Coordinator *fleet.Coordinator
	// HighWater is the imbalance score — (max − min) / mean of
	// per-shard weighted cost — above which a pass plans moves
	// (<=0: 0.25). Once triggered, planning continues on later passes
	// until the score drops below HighWater/2, so the fleet converges
	// instead of oscillating around HighWater.
	HighWater float64
	// PlanEvery is the rebalancing pass cadence (<=0: 15s).
	PlanEvery time.Duration
	// ReadmitAfter is the consecutive successful probes a down shard
	// must answer before automatic re-admission (<=0: 3).
	ReadmitAfter int
	// Quarantine is the probation window between Readmit and Promote:
	// the shard serves only new sessions until it has stayed healthy
	// this long (<=0: 60s).
	Quarantine time.Duration
	// ScrubEvery is the checkpoint scrub cadence (<=0: 60s; scrubbing
	// also requires the coordinator's store to be a QuorumStore).
	ScrubEvery time.Duration
	// Limits bounds decode budgets on probe connections (zero:
	// defaults).
	Limits fleet.Limits
	// Clock drives every cadence and window (nil: system clock; tests
	// inject a FakeClock and step the policies by hand).
	Clock faultinject.Clock
	// Seed drives loop jitter (deterministic by default).
	Seed int64
	// Elector, when set, ties the autopilot to lease-based election:
	// policy passes run only while the elector leads, and losing the
	// lease self-fences the coordinator.
	Elector *Elector
	// Logf receives policy diagnostics (nil: silent).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.HighWater <= 0 {
		c.HighWater = 0.25
	}
	if c.PlanEvery <= 0 {
		c.PlanEvery = 15 * time.Second
	}
	if c.ReadmitAfter <= 0 {
		c.ReadmitAfter = 3
	}
	if c.Quarantine <= 0 {
		c.Quarantine = 60 * time.Second
	}
	if c.ScrubEvery <= 0 {
		c.ScrubEvery = 60 * time.Second
	}
	if c.Clock == nil {
		c.Clock = faultinject.SystemClock()
	}
	return c
}

// probeEvery is the down-shard recovery probe cadence; probeTimeout
// bounds one probe's dial and ping.
const (
	probeEvery   = 5 * time.Second
	probeTimeout = 2 * time.Second
)

// Autopilot is the fleet's hands-off control plane: a planning loop
// draining hot shards through gated migrations, a recovery loop
// re-admitting probed-healthy shards through probation, and a scrub
// loop restoring checkpoint replication. All three policies are also
// callable as single deterministic steps (PlanOnce, ReadmitOnce,
// ScrubOnce) — the loops add only cadence and jitter.
type Autopilot struct {
	cfg   Config
	coord *fleet.Coordinator
	clock faultinject.Clock

	mu        sync.Mutex
	active    bool                 // hysteresis: planning until below HighWater/2
	lastMoved map[string]int64     // session id -> UnixNano of its last move
	probeOK   map[string]int       // down shard -> consecutive probe successes
	probStart map[string]time.Time // probation shard -> probation entry time

	passes       atomic.Uint64
	moves        atomic.Uint64
	scrubChecked atomic.Uint64
	scrubRepairs atomic.Uint64
	scrubSwept   atomic.Uint64
	scrubStuck   atomic.Uint64
	imbalance    atomic.Uint64 // math.Float64bits of the last pass's score

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New validates the config, registers the autopilot as the
// coordinator's status provider, and returns it stopped — call Start
// for the background loops, or drive the policies manually.
func New(cfg Config) (*Autopilot, error) {
	if cfg.Coordinator == nil {
		return nil, errors.New("autopilot: Config.Coordinator is required")
	}
	cfg = cfg.withDefaults()
	a := &Autopilot{
		cfg:       cfg,
		coord:     cfg.Coordinator,
		clock:     cfg.Clock,
		lastMoved: map[string]int64{},
		probeOK:   map[string]int{},
		probStart: map[string]time.Time{},
		stop:      make(chan struct{}),
	}
	cfg.Coordinator.SetStatusProvider(a.Status)
	return a, nil
}

func (a *Autopilot) logf(format string, args ...any) {
	if a.cfg.Logf != nil {
		a.cfg.Logf(format, args...)
	}
}

// leading reports whether policy passes may mutate the fleet: never
// on a deposed coordinator (even once its elector wins the lease back —
// a deposed coordinator's routed ids are stale, and its scrubber would
// sweep live checkpoints), otherwise always without an elector and
// only while the lease is held with one.
func (a *Autopilot) leading() bool {
	if a.coord.Deposed() {
		return false
	}
	if a.cfg.Elector == nil {
		return true
	}
	ok, _ := a.cfg.Elector.Leading()
	return ok
}

// PlanOnce runs one rebalancing pass: sample the fleet status, score the
// imbalance, and — when the hysteresis band says so — migrate up to
// maxMoves cheapest sessions from the hottest shard to the coldest.
// Returns the sessions moved. Per-move failures are joined, not fatal;
// a failed move leaves the session where it was.
func (a *Autopilot) PlanOnce() (moved int, err error) {
	if !a.leading() {
		return 0, ErrNotLeader
	}
	a.passes.Add(1)
	costs := planCosts(a.coord.Status().Shards)
	score := imbalanceOf(costs)
	a.imbalance.Store(math.Float64bits(score))

	a.mu.Lock()
	switch {
	case score > a.cfg.HighWater:
		a.active = true
	case score < a.cfg.HighWater/2:
		a.active = false
	}
	active := a.active
	now := a.clock.Now().UnixNano()
	cooling := func(id string) bool {
		last, ok := a.lastMoved[id]
		return ok && now-last < int64(moveCooldown)
	}
	a.mu.Unlock()
	if !active {
		return 0, nil
	}

	plan := planMoves(costs, a.cfg.HighWater/2, maxMoves, cooling)
	var errs []error
	for _, m := range plan {
		if err := a.coord.Migrate(m.ID, m.To); err != nil {
			errs = append(errs, fmt.Errorf("rebalance %q -> %s: %w", m.ID, m.To, err))
			continue
		}
		a.mu.Lock()
		a.lastMoved[m.ID] = now
		a.mu.Unlock()
		a.moves.Add(1)
		moved++
		a.logf("autopilot: rebalanced %q %s -> %s (imbalance %.3f)", m.ID, m.From, m.To, score)
	}
	return moved, errors.Join(errs...)
}

// ReadmitOnce runs one recovery step: probe every down shard, count
// consecutive successes, re-admit shards that answered ReadmitAfter
// probes in a row, and promote probation shards whose quarantine
// window has passed. Returns (shards re-admitted, shards promoted).
func (a *Autopilot) ReadmitOnce() (readmitted, promoted int, err error) {
	if !a.leading() {
		return 0, 0, ErrNotLeader
	}
	var errs []error
	downSet := map[string]bool{}
	for _, addr := range a.coord.Down() {
		downSet[addr] = true
		if a.probe(addr) {
			a.mu.Lock()
			a.probeOK[addr]++
			n := a.probeOK[addr]
			a.mu.Unlock()
			if n < a.cfg.ReadmitAfter {
				continue
			}
			if rerr := a.coord.Readmit(addr); rerr != nil {
				errs = append(errs, fmt.Errorf("readmit %s: %w", addr, rerr))
				continue
			}
			a.mu.Lock()
			delete(a.probeOK, addr)
			a.probStart[addr] = a.clock.Now()
			a.mu.Unlock()
			readmitted++
		} else {
			a.mu.Lock()
			a.probeOK[addr] = 0
			a.mu.Unlock()
		}
	}
	a.mu.Lock()
	for addr := range a.probeOK {
		if !downSet[addr] {
			delete(a.probeOK, addr) // no longer down; stale counter
		}
	}
	probation := map[string]bool{}
	for _, p := range a.coord.Probation() {
		probation[p] = true
	}
	var due []string
	for addr, since := range a.probStart {
		if !probation[addr] {
			delete(a.probStart, addr) // died again or promoted elsewhere
			continue
		}
		if a.clock.Now().Sub(since) >= a.cfg.Quarantine {
			due = append(due, addr)
		}
	}
	a.mu.Unlock()
	sort.Strings(due)
	for _, addr := range due {
		if perr := a.coord.Promote(addr); perr != nil {
			errs = append(errs, fmt.Errorf("promote %s: %w", addr, perr))
			continue
		}
		a.mu.Lock()
		delete(a.probStart, addr)
		a.mu.Unlock()
		promoted++
	}
	return readmitted, promoted, errors.Join(errs...)
}

// probe pings addr over a short dedicated connection.
func (a *Autopilot) probe(addr string) bool {
	t := fleet.Timeouts{Dial: probeTimeout, Read: probeTimeout, Write: probeTimeout}
	cl, err := fleet.DialTimeouts(addr, a.cfg.Limits, t)
	if err != nil {
		return false
	}
	defer cl.Close()
	return cl.Ping() == nil
}

// ScrubOnce runs one checkpoint-scrub pass over the coordinator's
// quorum store: verify every chain replica's integrity, sweep records
// for dead sessions (including orphans a partial Delete left behind),
// and re-replicate to restore W-of-N. A coordinator backed by a plain
// store scrubs nothing and returns a zero report.
func (a *Autopilot) ScrubOnce() (session.ScrubReport, error) {
	if !a.leading() {
		return session.ScrubReport{}, ErrNotLeader
	}
	qs, ok := a.coord.Store().(*session.QuorumStore)
	if !ok {
		return session.ScrubReport{}, nil
	}
	live := map[string]bool{fleet.MetaKey: true, LeaseKey: true}
	for _, id := range a.coord.RoutedIDs() {
		live[id] = true
	}
	rep, err := qs.Scrub(session.ScrubConfig{
		Live:   func(id string) bool { return live[id] },
		Verify: verifyRecord,
	})
	a.scrubChecked.Add(uint64(rep.Checked))
	a.scrubRepairs.Add(uint64(rep.Repaired))
	a.scrubSwept.Add(uint64(rep.Swept))
	a.scrubStuck.Add(uint64(rep.Unrepairable))
	if rep.Repaired > 0 || rep.Swept > 0 || rep.Unrepairable > 0 {
		a.logf("autopilot: scrub: %d checked, %d repaired, %d swept, %d corrupt, %d unrepairable",
			rep.Checked, rep.Repaired, rep.Swept, rep.Corrupt, rep.Unrepairable)
	}
	return rep, err
}

// verifyRecord integrity-checks one stored record by its magic: BBFM
// meta blobs and BBLS leases get their CRC-sealed decoders, everything
// else must parse as a .bbck checkpoint.
func verifyRecord(id string, data []byte) error {
	switch {
	case bytes.HasPrefix(data, []byte("BBFM")):
		return fleet.VerifyMeta(data)
	case bytes.HasPrefix(data, []byte("BBLS")):
		_, err := DecodeLease(data)
		return err
	default:
		_, err := checkpoint.Decode(data)
		return err
	}
}

// Status assembles the policy state a coordinator's Status carries.
func (a *Autopilot) Status() fleet.AutopilotInfo {
	readmitted, promoted := a.coord.Readmissions()
	info := fleet.AutopilotInfo{
		Enabled:      true,
		Imbalance:    math.Float64frombits(a.imbalance.Load()),
		Threshold:    a.cfg.HighWater,
		Passes:       a.passes.Load(),
		Moves:        a.moves.Load(),
		Readmitted:   readmitted,
		Promoted:     promoted,
		ScrubChecked: a.scrubChecked.Load(),
		ScrubRepairs: a.scrubRepairs.Load(),
		ScrubSwept:   a.scrubSwept.Load(),
		ScrubStuck:   a.scrubStuck.Load(),
	}
	if e := a.cfg.Elector; e != nil {
		held, _ := e.Leading()
		l := e.Lease()
		info.LeaseHeld = held
		info.LeaseHolder = l.Holder
		info.LeaseTerm = l.Term
		info.LeaseEpoch = l.Epoch
		info.LeaseExpires = l.Expires
	}
	return info
}

// Start launches the background loops: planning, recovery probing,
// scrubbing, and (when configured) election. Each loop runs its policy
// step on a ±25%-jittered cadence — fleets of autopilots must not
// synchronize their passes.
func (a *Autopilot) Start() {
	loops := []struct {
		every time.Duration
		step  func()
	}{
		{a.cfg.PlanEvery, func() {
			if _, err := a.PlanOnce(); err != nil && !errors.Is(err, ErrNotLeader) {
				a.logf("autopilot: plan: %v", err)
			}
		}},
		{probeEvery, func() {
			if _, _, err := a.ReadmitOnce(); err != nil && !errors.Is(err, ErrNotLeader) {
				a.logf("autopilot: readmit: %v", err)
			}
		}},
		{a.cfg.ScrubEvery, func() {
			if _, err := a.ScrubOnce(); err != nil && !errors.Is(err, ErrNotLeader) {
				a.logf("autopilot: scrub: %v", err)
			}
		}},
	}
	for i, l := range loops {
		a.wg.Add(1)
		go func(every time.Duration, step func(), seed int64) {
			defer a.wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-a.stop:
					return
				case <-a.clock.After(fleet.Jittered(rng, every)):
					step()
				}
			}
		}(l.every, l.step, a.cfg.Seed+int64(i))
	}
	if a.cfg.Elector != nil {
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			a.cfg.Elector.Run(a.stop, a.cfg.Seed+17)
		}()
	}
}

// Close stops the loops and waits them out. The coordinator is left
// running — the autopilot is policy, not mechanism.
func (a *Autopilot) Close() {
	a.stopOnce.Do(func() { close(a.stop) })
	a.wg.Wait()
}

package fleet

import (
	"errors"
	"time"
)

// HealthState is one shard's position in the routing health machine.
// The machine distinguishes two failure signals: a hard transport
// error (connection refused/reset — the process is gone) jumps
// straight to down and triggers recovery, while a deadline expiry (the
// peer may be alive but slow or partitioned) only counts a strike —
// up -> suspect after suspectAfter strikes, suspect -> down after
// downAfter. Any successful round trip resets a non-down shard to up;
// down is sticky until the shard returns via Readmit or Join.
type HealthState uint8

const (
	HealthUp HealthState = iota
	HealthSuspect
	HealthDown
)

func (s HealthState) String() string {
	switch s {
	case HealthUp:
		return "up"
	case HealthSuspect:
		return "suspect"
	case HealthDown:
		return "down"
	}
	return "unknown"
}

// HealthConfig tunes the coordinator's shard health machinery. The
// strike thresholds and the retry policy are fixed: one timeout marks a
// shard suspect and three mark it down; an idempotent request is
// retried at most twice on the same shard after a timeout, with a
// jittered backoff from 50ms doubling to 1s.
type HealthConfig struct {
	// ProbeInterval is the cadence of the background ping loop (0: no
	// background probes; ProbeOnce still works — tests drive it
	// manually for determinism).
	ProbeInterval time.Duration
	// Seed drives the retry jitter (deterministic by default).
	Seed int64
}

const (
	// suspectAfter and downAfter are the consecutive timeouts that mark
	// a shard suspect and down; down triggers session recovery.
	suspectAfter = 1
	downAfter    = 3
	// opRetries bounds same-shard retries of an idempotent request
	// after a timeout.
	opRetries = 2
	// retryBackoff is the base of the capped exponential backoff
	// between retries, and retryBackoffCap its cap.
	retryBackoff    = 50 * time.Millisecond
	retryBackoffCap = time.Second
)

// markUp resets a shard to healthy after any successful round trip.
// Down stays down — its sessions have already been recovered away, and
// flapping it back without a Readmit would split ownership.
func (c *Coordinator) markUp(addr string) {
	c.mu.Lock()
	if s := c.shards[addr]; s != nil && s.health != HealthDown {
		s.health, s.fails = HealthUp, 0
	}
	c.mu.Unlock()
}

// recordTimeout counts one deadline strike against addr and reports
// whether the shard reached the down threshold (the caller then runs
// shard-loss recovery, which marks it down).
func (c *Coordinator) recordTimeout(addr string) (lost bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.shards[addr]
	if s == nil || s.health == HealthDown {
		return false
	}
	s.fails++
	if s.fails >= suspectAfter {
		s.health = HealthSuspect
	}
	return s.fails >= downAfter
}

// backoff sleeps the capped-jitter retry delay for the given retry
// ordinal: full jitter over [d/2, d] where d doubles per retry up to
// the cap, so synchronized retries from many sessions spread out.
func (c *Coordinator) backoff(retry int) {
	d := retryBackoff << (retry - 1)
	if d > retryBackoffCap || d <= 0 {
		d = retryBackoffCap
	}
	c.rngMu.Lock()
	jittered := d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	c.rngMu.Unlock()
	time.Sleep(jittered)
}

// ProbeOnce pings every shard that may serve sessions — active,
// probation, or draining — once and feeds the results to the health
// machine: a hard transport error is shard loss, a timeout is a strike
// (escalating to loss at downAfter), success resets to up. It returns
// the post-probe states of the ring members. The background loop calls
// this on ProbeInterval; tests call it directly for determinism.
func (c *Coordinator) ProbeOnce() map[string]HealthState {
	c.mu.Lock()
	addrs := c.shardsLocked(RoleActive, RoleProbation, RoleDraining)
	c.mu.Unlock()
	for _, addr := range addrs {
		c.mu.Lock()
		cl, err := c.clientLocked(addr)
		c.mu.Unlock()
		if err == nil {
			err = cl.Ping()
		}
		switch {
		case err == nil:
			c.markUp(addr)
		case errors.Is(err, ErrDeposed):
			// A successor fenced the shard; the fleet is its to recover.
		case isTimeout(err):
			if c.recordTimeout(addr) {
				c.logf("fleet: probe: shard %s reached its timeout threshold; recovering", addr)
				c.handleShardLoss(addr)
			}
		default:
			c.logf("fleet: probe: shard %s unreachable (%v); recovering", addr, err)
			c.handleShardLoss(addr)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	states := map[string]HealthState{}
	for _, a := range c.membersLocked() {
		states[a] = c.shards[a].health
	}
	return states
}

// probeLoop drives ProbeOnce on the configured cadence until Close.
// Each period is jittered ±25% so a fleet of coordinators (or one
// restarted alongside many shards) does not synchronize its probe
// bursts into a thundering herd.
func (c *Coordinator) probeLoop() {
	defer c.probeWG.Done()
	for {
		select {
		case <-c.stop:
			return
		case <-time.After(c.jittered(c.cfg.Health.ProbeInterval)):
			if c.deposed.Load() {
				return
			}
			c.ProbeOnce()
		}
	}
}

// jittered spreads a tick period uniformly over [0.75d, 1.25d] using
// the coordinator's seeded rng — the anti-thundering-herd spacing for
// periodic fleet work.
func (c *Coordinator) jittered(d time.Duration) time.Duration {
	q := d / 4
	if q <= 0 {
		return d
	}
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return d - q + time.Duration(c.rng.Int63n(int64(2*q)+1))
}

package fleet

import (
	"errors"
	"math/rand"
	"time"
)

// HealthConfig tunes the coordinator's shard probes. There is one
// failure rule (DESIGN.md §17): a shard that answers, even with a
// rejection, is up; any other failure of a dial, fence or round trip —
// refused, reset, closed or past its deadline — is shard loss.
type HealthConfig struct {
	// ProbeInterval is the cadence of the background ping loop (0: no
	// background probes; ProbeOnce still works — tests drive it
	// manually for determinism).
	ProbeInterval time.Duration
	// Seed drives the probe jitter (deterministic by default).
	Seed int64
}

// ProbeOnce pings every shard that may serve sessions — active,
// probation, or draining — once. A ping that fails without an answer
// is shard loss: the shard goes down and its sessions move before any
// client request notices. The background loop calls this on
// ProbeInterval; tests call it directly for determinism.
func (c *Coordinator) ProbeOnce() {
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
		var remote *RemoteError
		switch {
		case err == nil, errors.As(err, &remote):
			// The shard answered.
		case errors.Is(err, ErrDeposed):
			// A successor fenced the shard; the fleet is its to recover.
		default:
			c.logf("fleet: probe: shard %s unreachable (%v); recovering", addr, err)
			c.handleShardLoss(addr)
		}
	}
}

// probeLoop drives ProbeOnce on the configured cadence until Close.
// Each period is jittered ±25% so a fleet of coordinators (or one
// restarted alongside many shards) does not synchronize its probe
// bursts into a thundering herd.
func (c *Coordinator) probeLoop() {
	defer c.probeWG.Done()
	rng := rand.New(rand.NewSource(c.cfg.Health.Seed))
	for {
		select {
		case <-c.stop:
			return
		case <-time.After(Jittered(rng, c.cfg.Health.ProbeInterval)):
			if c.deposed.Load() {
				return
			}
			c.ProbeOnce()
		}
	}
}

// Jittered spreads a tick period uniformly over [0.75d, 1.25d] — the
// anti-thundering-herd spacing for periodic fleet work.
func Jittered(rng *rand.Rand, d time.Duration) time.Duration {
	q := d / 4
	if q <= 0 {
		return d
	}
	return d - q + time.Duration(rng.Int63n(int64(2*q)+1))
}

package fleet

// Load sampling (DESIGN.md §18). The rebalancer plans on per-shard
// load rows — session count, summed stream footprint, feed-latency
// EWMA — gathered here. Sampling is deliberately passive: it uses
// short dedicated connections bounded by LoadTimeout, and a shard that
// fails to answer costs one placeholder row (Err set), never a
// shard-loss recovery or a hung stats command. Health transitions stay
// the prober's and the request path's job.

// Loads samples every member shard's load, one row per member in
// address order. Down members and members that fail to answer within
// LoadTimeout get placeholder rows with Err set and no session detail
// — the graceful-degradation contract `bgbuster stats` renders as
// DOWN/? rows.
func (c *Coordinator) Loads() []ShardLoad {
	c.mu.Lock()
	var rows []ShardLoad
	for _, a := range c.membersLocked() {
		s := c.shards[a]
		row := ShardLoad{Addr: a, State: uint8(s.health), Weight: uint16(s.weight)}
		if s.role == roleDown {
			row.Err = "down"
		}
		rows = append(rows, row)
	}
	c.mu.Unlock()

	for i := range rows {
		row := &rows[i]
		if row.Err != "" {
			continue
		}
		sample, err := c.sampleShard(row.Addr)
		if err != nil {
			row.Err = err.Error()
			continue
		}
		row.Mem, row.FeedMicros, row.Sess = sample.Mem, sample.FeedMicros, sample.Sess
	}
	return rows
}

// sampleShard fetches one shard's self-reported load row over a short
// dedicated connection. The LoadTimeout deadline is what keeps one
// slow shard from stalling the whole sample.
func (c *Coordinator) sampleShard(addr string) (ShardLoad, error) {
	t := Timeouts{Dial: c.cfg.LoadTimeout, Read: c.cfg.LoadTimeout, Write: c.cfg.LoadTimeout}
	cl, err := DialTimeouts(addr, c.cfg.Limits, t)
	if err != nil {
		return ShardLoad{}, err
	}
	defer cl.Close()
	rows, err := cl.Load()
	if err != nil {
		return ShardLoad{}, err
	}
	if len(rows) != 1 {
		return ShardLoad{}, ErrBadMessage
	}
	return rows[0], nil
}

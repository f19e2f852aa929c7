package autopilot

import (
	"sort"
	"time"

	"github.com/bgbuster/bgbuster/internal/fleet"
)

const (
	// maxMoves bounds migrations per planning pass — rebalancing is
	// rate-limited background work, not a stampede.
	maxMoves = 2
	// moveCooldown is the minimum interval before the planner may move
	// the same session again.
	moveCooldown = time.Minute
)

// shardCost is one live shard's weighted planning cost.
type shardCost struct {
	addr   string
	weight float64
	cost   float64 // raw load / weight
	sess   []fleet.SessionLoad
}

// rawLoad scores one shard's absolute load: its summed session memory
// footprint, with one byte-equivalent per session so empty-memory
// fleets still rank by session count.
func rawLoad(row fleet.ShardStatus) float64 {
	return float64(row.Mem) + float64(len(row.Sess))
}

// imbalanceOf computes (max − min) / mean over per-shard weighted
// costs; 0 when fewer than two live shards report.
func imbalanceOf(costs []shardCost) float64 {
	if len(costs) < 2 {
		return 0
	}
	min, max, sum := costs[0].cost, costs[0].cost, 0.0
	for _, c := range costs {
		if c.cost < min {
			min = c.cost
		}
		if c.cost > max {
			max = c.cost
		}
		sum += c.cost
	}
	mean := sum / float64(len(costs))
	if mean == 0 {
		return 0
	}
	return (max - min) / mean
}

// planCosts projects status rows onto planning costs, dropping rows
// the planner cannot act on: failed samples (Err set — the load is
// unknown, not zero; down shards carry one), probation shards (Migrate
// refuses them as targets, and draining a shard that holds nothing is
// moot) and draining shards (their sessions are already leaving).
func planCosts(rows []fleet.ShardStatus) []shardCost {
	var costs []shardCost
	for _, row := range rows {
		if row.Err != "" || row.Role == fleet.RoleProbation || row.Role == fleet.RoleDraining {
			continue
		}
		w := float64(row.Weight)
		if w <= 0 {
			w = 1
		}
		costs = append(costs, shardCost{addr: row.Addr, weight: w, cost: rawLoad(row) / w, sess: row.Sess})
	}
	return costs
}

// planMoves picks up to maxMoves cheapest-session migrations from the
// hottest shard to the coldest, re-simulating costs after each pick and
// stopping early once the simulated score falls below lowWater. Moving
// the cheapest session first is deliberate: many small corrections
// converge smoothly where one big transfer overshoots and oscillates.
type plannedMove struct {
	ID   string
	From string
	To   string
}

func planMoves(costs []shardCost, lowWater float64, maxMoves int, skip func(id string) bool) []plannedMove {
	var moves []plannedMove
	for len(moves) < maxMoves {
		if imbalanceOf(costs) <= lowWater {
			return moves
		}
		hot, cold := -1, -1
		for i := range costs {
			if hot < 0 || costs[i].cost > costs[hot].cost {
				hot = i
			}
			if cold < 0 || costs[i].cost < costs[cold].cost {
				cold = i
			}
		}
		if hot < 0 || hot == cold || len(costs[hot].sess) == 0 {
			return moves
		}
		// Cheapest movable session on the hot shard; ties break on id so
		// the plan is deterministic for a given load sample.
		sess := append([]fleet.SessionLoad(nil), costs[hot].sess...)
		sort.Slice(sess, func(i, j int) bool {
			if sess[i].Mem != sess[j].Mem {
				return sess[i].Mem < sess[j].Mem
			}
			return sess[i].ID < sess[j].ID
		})
		picked := -1
		for i, s := range sess {
			if skip == nil || !skip(s.ID) {
				picked = i
				break
			}
		}
		if picked < 0 {
			return moves // every hot session is cooling down
		}
		s := sess[picked]
		delta := float64(s.Mem) + 1
		// Refuse moves that would overshoot: if handing this session over
		// leaves the target hotter than the source ends up, the move
		// cannot reduce the spread.
		if costs[cold].cost+delta/costs[cold].weight >= costs[hot].cost {
			return moves
		}
		moves = append(moves, plannedMove{ID: s.ID, From: costs[hot].addr, To: costs[cold].addr})
		costs[hot].cost -= delta / costs[hot].weight
		costs[cold].cost += delta / costs[cold].weight
		kept := costs[hot].sess[:0]
		for _, ss := range costs[hot].sess {
			if ss.ID != s.ID {
				kept = append(kept, ss)
			}
		}
		costs[hot].sess = kept
		costs[cold].sess = append(costs[cold].sess, s)
	}
	return moves
}

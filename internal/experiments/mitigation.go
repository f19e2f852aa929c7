package experiments

import (
	"math/rand"

	"github.com/bgbuster/bgbuster/internal/compositor"
	"github.com/bgbuster/bgbuster/internal/dataset"
	"github.com/bgbuster/bgbuster/internal/mitigate"
)

// Fig15aRow is one group's recovery under the dynamic-VB mitigation.
type Fig15aRow struct {
	Group Group
	// ClaimedRBRR rises under the mitigation because the framework
	// mislabels fluctuating virtual pixels as leaks (paper: 65.8 / 74 /
	// 86.2 % for passive / active / wild).
	ClaimedRBRR float64
	// TruePct and Precision quantify how hollow the claims are — the
	// reproduction's added verification metrics.
	TruePct   float64
	Precision float64
	Calls     int
}

// Fig15aMitigationRBRR reproduces Figure 15a: apply the dynamic virtual
// background and re-run the reconstruction framework over E2/E3.
func Fig15aMitigationRBRR(cfg Config) ([]Fig15aRow, error) {
	runs, err := mitigatedRuns(cfg)
	if err != nil {
		return nil, err
	}
	var rows []Fig15aRow
	for _, g := range []Group{GroupPassive, GroupActive, GroupWild} {
		row := Fig15aRow{Group: g}
		for _, run := range runs[g] {
			row.ClaimedRBRR += run.verify.ClaimedPct
			row.TruePct += run.verify.TruePct
			row.Precision += run.verify.Precision
			row.Calls++
		}
		if row.Calls > 0 {
			n := float64(row.Calls)
			row.ClaimedRBRR /= n
			row.TruePct /= n
			row.Precision /= n
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// mitigatedRuns executes the pipeline with the dynamic-VB transform.
// Each call gets its own transform, seeded from the call, so its draws
// do not depend on which calls run beside it.
func mitigatedRuns(cfg Config) (map[Group][]*callRun, error) {
	return groupRuns(cfg, cfg.Profile, func(call *dataset.Call) compositor.VBTransform {
		rng := rand.New(rand.NewSource(cfg.callSeed(call.ID) + 4242))
		return mitigate.DynamicVB(mitigate.DefaultDynamicVBConfig(), rng)
	})
}

// Fig15aTable renders the mitigation recovery result.
func Fig15aTable(rows []Fig15aRow) *Table {
	t := &Table{
		Title:   "Figure 15a — RBRR after applying the dynamic virtual background",
		Columns: []string{"group", "claimed RBRR", "verified recovery", "precision", "calls"},
		Notes: []string{
			"paper: claimed RBRR inflates to 65.8/74/86.2% but the claims are dominated by virtual pixels",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Group.String(), pct(r.ClaimedRBRR), pct(r.TruePct), num(r.Precision), count(r.Calls),
		})
	}
	return t
}

// Fig15bMitigationLocation reproduces Figure 15b: location inference
// against mitigated calls. The paper reports top-25 success collapsing
// to 40 % (active E2) and 22 % (wild).
func Fig15bMitigationLocation(cfg Config) (*Fig12bResult, error) {
	runs, err := mitigatedRuns(cfg)
	if err != nil {
		return nil, err
	}
	return locationFromRuns(cfg, runs)
}

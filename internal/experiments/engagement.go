package experiments

import (
	"fmt"

	"github.com/bgbuster/bgbuster/internal/attacks/location"
	"github.com/bgbuster/bgbuster/internal/compositor"
	"github.com/bgbuster/bgbuster/internal/dataset"
	"github.com/bgbuster/bgbuster/internal/person"
)

// Group identifies the E2/E3 evaluation groups of Figures 12 and 15.
type Group int

// Evaluation groups.
const (
	GroupPassive Group = iota + 1
	GroupActive
	GroupWild
)

// String returns the group label.
func (g Group) String() string {
	switch g {
	case GroupPassive:
		return "passive (E2)"
	case GroupActive:
		return "active (E2)"
	case GroupWild:
		return "wild (E3)"
	default:
		return fmt.Sprintf("group(%d)", int(g))
	}
}

// groupCalls returns the calls of each evaluation group.
func groupCalls(cfg Config) map[Group][]*dataset.Call {
	out := map[Group][]*dataset.Call{}
	for _, c := range dataset.E2(cfg.Data) {
		if c.Engagement == person.EngagementActive {
			out[GroupActive] = append(out[GroupActive], c)
		} else {
			out[GroupPassive] = append(out[GroupPassive], c)
		}
	}
	out[GroupWild] = dataset.E3(cfg.Data)
	for g := range out {
		out[g] = cfg.limit(out[g])
	}
	return out
}

// Fig12aRow is one group's recovery summary.
type Fig12aRow struct {
	Group    Group
	MeanRBRR float64
	Calls    int
}

// Fig12aPassiveActiveWild reproduces Figure 12a: passive callers leak
// far less than active callers; wild videos sit in between (paper: 9.8 %
// / 30 % / 23.9 %).
func Fig12aPassiveActiveWild(cfg Config) ([]Fig12aRow, error) {
	runs, err := groupRuns(cfg, cfg.Profile, nil)
	if err != nil {
		return nil, err
	}
	var rows []Fig12aRow
	for _, g := range []Group{GroupPassive, GroupActive, GroupWild} {
		sum := 0.0
		for _, run := range runs[g] {
			sum += run.rec.RBRR()
		}
		n := len(runs[g])
		row := Fig12aRow{Group: g, Calls: n}
		if n > 0 {
			row.MeanRBRR = sum / float64(n)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// groupRuns executes the standard pipeline over every group call, in
// parallel across calls; transform is as for runCalls.
func groupRuns(cfg Config, profile compositor.Profile, transform func(*dataset.Call) compositor.VBTransform) (map[Group][]*callRun, error) {
	groups := groupCalls(cfg)
	out := map[Group][]*callRun{}
	for _, g := range []Group{GroupPassive, GroupActive, GroupWild} {
		runs, err := cfg.runCalls(groups[g], profile, transform)
		if err != nil {
			return nil, err
		}
		out[g] = runs
	}
	return out, nil
}

// Fig12aTable renders the group recovery summary.
func Fig12aTable(rows []Fig12aRow) *Table {
	t := &Table{
		Title:   "Figure 12a — background recovery in E2 and E3",
		Columns: []string{"group", "mean RBRR", "calls"},
		Notes:   []string{"paper: passive 9.8%, active 30%, wild 23.9%"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Group.String(), pct(r.MeanRBRR), count(r.Calls)})
	}
	return t
}

// TopKs are the paper's k values for location inference.
var TopKs = []int{1, 5, 10, 25}

// Fig12bRow is one group's location-inference success profile.
type Fig12bRow struct {
	Group Group
	// TopK maps k → % of the group's videos whose true background
	// ranked within the top k.
	TopK  map[int]float64
	Calls int
}

// Fig12bResult is the location-inference experiment output.
type Fig12bResult struct {
	Rows []Fig12bRow
	// RandomBaseline maps k → expected success % of random guessing.
	RandomBaseline map[int]float64
	DictSize       int
}

// Fig12bLocation reproduces Figure 12b: rank the reconstruction of every
// E2/E3 call against a dictionary of known backgrounds and report top-k
// success per group, against the random baseline.
func Fig12bLocation(cfg Config) (*Fig12bResult, error) {
	runs, err := groupRuns(cfg, cfg.Profile, nil)
	if err != nil {
		return nil, err
	}
	return locationFromRuns(cfg, runs)
}

// locationFromRuns ranks already-executed runs (shared with Fig15b).
func locationFromRuns(cfg Config, runs map[Group][]*callRun) (*Fig12bResult, error) {
	dict, err := buildDictionary(cfg, runs)
	if err != nil {
		return nil, err
	}
	res := &Fig12bResult{RandomBaseline: map[int]float64{}, DictSize: len(dict)}
	for _, k := range TopKs {
		p, err := location.RandomBaselineProb(len(dict), k)
		if err != nil {
			return nil, err
		}
		res.RandomBaseline[k] = p * 100
	}
	for _, g := range []Group{GroupPassive, GroupActive, GroupWild} {
		row := Fig12bRow{Group: g, TopK: map[int]float64{}}
		hits := map[int]int{}
		for _, run := range runs[g] {
			matches, err := location.Rank(run.rec, dict, location.DefaultOptions())
			if err != nil {
				return nil, err
			}
			for _, k := range TopKs {
				if location.TopK(matches, run.call.LocationName(), k) {
					hits[k]++
				}
			}
			row.Calls++
		}
		for _, k := range TopKs {
			if row.Calls > 0 {
				row.TopK[k] = 100 * float64(hits[k]) / float64(row.Calls)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// buildDictionary assembles the location dictionary: the true background
// of every evaluated call plus filler scenes up to cfg.DictSize (the
// paper populates 200 unique backgrounds from E1–E3).
func buildDictionary(cfg Config, runs map[Group][]*callRun) (location.Dictionary, error) {
	var dict location.Dictionary
	seen := map[string]bool{}
	add := func(name string, c *dataset.Call) {
		if seen[name] {
			return
		}
		seen[name] = true
		dict = append(dict, location.Entry{Name: name, Background: c.SceneFor().Base})
	}
	for _, g := range []Group{GroupPassive, GroupActive, GroupWild} {
		for _, run := range runs[g] {
			add(run.call.LocationName(), run.call)
		}
	}
	// Pad with E1 backgrounds first (the paper's dictionary spans E1–E3),
	// then synthetic fillers.
	for _, c := range dataset.E1(cfg.Data) {
		if len(dict) >= cfg.DictSize {
			break
		}
		add(c.LocationName(), c)
	}
	for i, sc := range dataset.FillerScenes(cfg.Data, maxInt(0, cfg.DictSize-len(dict))) {
		dict = append(dict, location.Entry{Name: fmt.Sprintf("filler-%d", i), Background: sc.Base})
	}
	if len(dict) == 0 {
		return nil, fmt.Errorf("experiments: empty location dictionary")
	}
	return dict, nil
}

// Table renders the location-inference profile.
func (r *Fig12bResult) Table(title string) *Table {
	t := &Table{
		Title:   title,
		Columns: []string{"group", "top-1", "top-5", "top-10", "top-25", "calls"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Group.String(),
			pct(row.TopK[1]), pct(row.TopK[5]), pct(row.TopK[10]), pct(row.TopK[25]),
			count(row.Calls),
		})
	}
	t.Rows = append(t.Rows, []string{
		"random baseline",
		pct(r.RandomBaseline[1]), pct(r.RandomBaseline[5]),
		pct(r.RandomBaseline[10]), pct(r.RandomBaseline[25]),
		"-",
	})
	t.Notes = append(t.Notes, fmt.Sprintf("dictionary size %d (paper: 200)", r.DictSize))
	return t
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

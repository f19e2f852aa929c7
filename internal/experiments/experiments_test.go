package experiments

import (
	"math"
	"strings"
	"testing"

	"github.com/bgbuster/bgbuster/internal/attacks/objdetect"
	"github.com/bgbuster/bgbuster/internal/person"
	"github.com/bgbuster/bgbuster/internal/plot"
)

// The experiment tests run on QuickConfig (small frames, tight limits)
// and assert the qualitative shapes the paper reports, not absolute
// numbers — absolute calibration is checked by the full-scale suite in
// cmd/experiments and recorded in EXPERIMENTS.md.

func TestVBMRTableShape(t *testing.T) {
	cfg := QuickConfig()
	cfg.Limit = 1
	res, err := VBMRTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 { // (3 images + 2 videos) × (known, unknown)
		t.Fatalf("got %d rows, want 10", len(res.Rows))
	}
	if res.KnownMean < 90 {
		t.Fatalf("known VBMR = %.1f%%, want ≥ 90%%", res.KnownMean)
	}
	if res.KnownMean <= res.UnknownMean {
		t.Fatalf("known (%.1f%%) must beat unknown (%.1f%%)", res.KnownMean, res.UnknownMean)
	}
	if !strings.Contains(res.Table().String(), "VBMR") {
		t.Fatal("table render broken")
	}
}

func TestPhiCalibration(t *testing.T) {
	cfg := QuickConfig()
	rows, err := PhiCalibration(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.EstimatedPhi < r.TrueRadius-1 || r.EstimatedPhi > r.TrueRadius+2 {
			t.Errorf("%s: estimated φ %d vs true %d", r.Profile, r.EstimatedPhi, r.TrueRadius)
		}
	}
	_ = PhiTable(rows).String()
}

func TestFig5InitialLeakageDecays(t *testing.T) {
	cfg := QuickConfig()
	rows, err := Fig5InitialLeakage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	first := rows[0].LeakPct
	last := rows[len(rows)-1].LeakPct
	if first <= last {
		t.Fatalf("initial leakage must decay: frame1 %.2f%% vs frame%d %.2f%%", first, len(rows), last)
	}
	_ = Fig5Table(rows).String()
}

func TestFig7EnterExitBeatsTyping(t *testing.T) {
	cfg := QuickConfig()
	cfg.Limit = 2
	rows, err := Fig7ActionRBRR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("got %d actions", len(rows))
	}
	byAction := map[person.Action]float64{}
	for _, r := range rows {
		byAction[r.Action] = r.MeanRBRR
	}
	enterExit := (byAction[person.ActionEnterRoom] + byAction[person.ActionExitRoom]) / 2
	if enterExit <= byAction[person.ActionType] {
		t.Fatalf("enter/exit RBRR (%.1f%%) must beat typing (%.1f%%)",
			enterExit, byAction[person.ActionType])
	}
	_ = Fig7Table(rows).String()
}

func TestFig8Shape(t *testing.T) {
	cfg := QuickConfig()
	cfg.Limit = 2
	rows, err := Fig8ActionSpeed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("got %d rows, want 6 (2 actions × 3 speeds)", len(rows))
	}
	get := func(a person.Action, s person.Speed) Fig8Row {
		for _, r := range rows {
			if r.Action == a && r.Speed == s {
				return r
			}
		}
		t.Fatalf("missing row %v/%v", a, s)
		return Fig8Row{}
	}
	// Slow actions must displace more than fast ones (paper in-text).
	if get(person.ActionArmWave, person.SpeedSlow).DisplacementPct <= get(person.ActionArmWave, person.SpeedFast).DisplacementPct {
		t.Error("slow waving must displace more than fast waving")
	}
	// Action-speed values are the paper's measured periods.
	if got := get(person.ActionClap, person.SpeedFast).ActionSpeedSec; got != 0.11 {
		t.Errorf("fast clap period = %v, want 0.11", got)
	}
	_ = Fig8Table(rows).String()
}

func TestFig9Runs(t *testing.T) {
	cfg := QuickConfig()
	cfg.Limit = 2
	rows, err := Fig9Accessories(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d accessory rows, want 4", len(rows))
	}
	_ = Fig9Table(rows).String()
}

func TestFig10f11LightingShape(t *testing.T) {
	cfg := QuickConfig()
	cfg.Limit = 4
	res, err := Fig10f11Lighting(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Calls == 0 {
		t.Fatal("no matched pairs")
	}
	if res.RegionJaccard < 0 || res.RegionJaccard > 1 {
		t.Fatalf("jaccard = %v", res.RegionJaccard)
	}
	_ = res.Table().String()
}

func TestFig12aActiveBeatsPassive(t *testing.T) {
	cfg := QuickConfig()
	rows, err := Fig12aPassiveActiveWild(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[Group]float64{}
	for _, r := range rows {
		vals[r.Group] = r.MeanRBRR
	}
	if vals[GroupActive] <= vals[GroupPassive] {
		t.Fatalf("active (%.1f%%) must beat passive (%.1f%%)", vals[GroupActive], vals[GroupPassive])
	}
	_ = Fig12aTable(rows).String()
}

func TestFig12bRunsAndBeatsRandom(t *testing.T) {
	cfg := QuickConfig()
	res, err := Fig12bLocation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d groups", len(res.Rows))
	}
	// The active group must beat the random baseline at top-5.
	for _, r := range res.Rows {
		if r.Group == GroupActive && r.TopK[5] <= res.RandomBaseline[5] {
			t.Fatalf("active top-5 (%.1f%%) must beat random (%.1f%%)", r.TopK[5], res.RandomBaseline[5])
		}
	}
	_ = res.Table("Figure 12b").String()
}

func TestObjectTrackingRuns(t *testing.T) {
	cfg := QuickConfig()
	cfg.Limit = 2
	res, err := ObjectTrackingTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Objects == 0 {
		t.Fatal("no tracking decisions made")
	}
	if res.Accuracy < 50 {
		t.Fatalf("tracking accuracy %.1f%% implausibly low", res.Accuracy)
	}
	_ = res.Table().String()
}

func TestGenericDetectionRuns(t *testing.T) {
	cfg := QuickConfig()
	cfg.Limit = 2
	res, err := GenericDetectionTable(cfg, objdetect.ModelRetinaNetStyle)
	if err != nil {
		t.Fatal(err)
	}
	if res.Calls == 0 {
		t.Fatal("no calls evaluated")
	}
	_ = res.Table().String()
}

func TestSkypeLeaksLessThanZoomE3(t *testing.T) {
	cfg := QuickConfig()
	cfg.Limit = 4
	rows, err := SkypeVsZoomTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d software rows", len(rows))
	}
	var zoom, skype SoftwareRow
	for _, r := range rows {
		if r.Software == "zoom" {
			zoom = r
		} else {
			skype = r
		}
	}
	if skype.MeanRBRR >= zoom.MeanRBRR {
		t.Fatalf("skype RBRR (%.1f%%) must be below zoom (%.1f%%)", skype.MeanRBRR, zoom.MeanRBRR)
	}
	_ = SoftwareTable(rows).String()
}

func TestFig15aMitigationInflatesClaims(t *testing.T) {
	cfg := QuickConfig()
	cfg.Limit = 2

	base, err := Fig12aPassiveActiveWild(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mit, err := Fig15aMitigationRBRR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseVals := map[Group]float64{}
	for _, r := range base {
		baseVals[r.Group] = r.MeanRBRR
	}
	for _, r := range mit {
		if r.ClaimedRBRR <= baseVals[r.Group] {
			t.Fatalf("%v: mitigated claimed RBRR (%.1f%%) must exceed unmitigated (%.1f%%)",
				r.Group, r.ClaimedRBRR, baseVals[r.Group])
		}
		if r.Precision > 0.5 {
			t.Fatalf("%v: mitigated precision %.2f should collapse below 0.5", r.Group, r.Precision)
		}
	}
	_ = Fig15aTable(mit).String()
}

// TestFig15aDeterministicAcrossWorkers requires identical Figure 15a
// rows whether the calls run one at a time or four at once: every
// call's dynamic-VB draws must come from that call's own seed, not from
// the order in which concurrent calls reach a shared generator.
func TestFig15aDeterministicAcrossWorkers(t *testing.T) {
	cfg := QuickConfig()
	cfg.Limit = 2
	rows := func(workers int) []Fig15aRow {
		c := cfg
		c.Workers = workers
		r, err := Fig15aMitigationRBRR(c)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	serial, parallel := rows(1), rows(4)
	if len(serial) != len(parallel) {
		t.Fatalf("%d rows at 1 worker, %d at 4", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("row %d: %+v at 1 worker, %+v at 4", i, serial[i], parallel[i])
		}
	}
}

func TestFig15bMitigationHurtsLocation(t *testing.T) {
	cfg := QuickConfig()
	cfg.Limit = 3
	base, err := Fig12bLocation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mit, err := Fig15bMitigationLocation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	top25 := func(res *Fig12bResult, g Group) float64 {
		for _, r := range res.Rows {
			if r.Group == g {
				return r.TopK[25]
			}
		}
		return 0
	}
	// Averaged over groups, mitigation must not improve the attack.
	baseSum := top25(base, GroupPassive) + top25(base, GroupActive) + top25(base, GroupWild)
	mitSum := top25(mit, GroupPassive) + top25(mit, GroupActive) + top25(mit, GroupWild)
	if mitSum > baseSum {
		t.Fatalf("mitigated top-25 sum (%.1f) must not beat unmitigated (%.1f)", mitSum, baseSum)
	}
}

func TestAblationsRun(t *testing.T) {
	cfg := QuickConfig()
	cfg.Limit = 2
	type fn func(Config) ([]AblationRow, error)
	for name, f := range map[string]fn{
		"trail":     AblationTemporalSmoothing,
		"boundary":  AblationBoundaryError,
		"color":     AblationColorRefine,
		"segmenter": AblationSegmenter,
		"blend":     AblationBlendKind,
	} {
		rows, err := f(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rows) < 2 {
			t.Fatalf("%s: %d rows", name, len(rows))
		}
		_ = AblationTable(name, rows).String()
	}
}

func TestAblationTrailAddsClaimedRecovery(t *testing.T) {
	cfg := QuickConfig()
	cfg.Limit = 5
	trail, err := AblationTemporalSmoothing(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The suite is fully seeded, so this ordering is deterministic.
	if trail[0].MeanClaimed <= trail[1].MeanClaimed {
		t.Fatalf("temporal trail must add claimed recovery: with %.1f%% vs without %.1f%%",
			trail[0].MeanClaimed, trail[1].MeanClaimed)
	}
}

func TestAblationBoundaryErrorDrives(t *testing.T) {
	cfg := QuickConfig()
	cfg.Limit = 5
	rows, err := AblationBoundaryError(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].MeanClaimed <= rows[1].MeanClaimed {
		t.Fatalf("boundary error must add claimed recovery: with %.1f%% vs without %.1f%%",
			rows[0].MeanClaimed, rows[1].MeanClaimed)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:   "demo",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"x", "y"}, {"wider-cell", "z"}},
		Notes:   []string{"a note"},
	}
	out := tbl.String()
	for _, want := range []string{"== demo ==", "long-column", "wider-cell", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestQuickConfigLimits(t *testing.T) {
	cfg := QuickConfig()
	if cfg.Limit == 0 || cfg.DictSize == 0 {
		t.Fatal("quick config must cap work")
	}
}

func TestMitigationHeuristicsShape(t *testing.T) {
	cfg := QuickConfig()
	cfg.Limit = 2
	rows, err := MitigationHeuristicsTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d heuristic rows, want 5", len(rows))
	}
	get := func(name string) HeuristicRow {
		for _, r := range rows {
			if r.Heuristic == name {
				return r
			}
		}
		t.Fatalf("missing heuristic %q", name)
		return HeuristicRow{}
	}
	base := get("baseline")
	// Deepfake replay must slash verified recovery to the frame-1 leak.
	if df := get("deepfake-replay"); df.VerifiedPct >= base.VerifiedPct/2 {
		t.Fatalf("deepfake verified %.1f%% vs baseline %.1f%%: must collapse", df.VerifiedPct, base.VerifiedPct)
	}
	// Frame dropping must reduce verified recovery monotonically with
	// the drop factor, and price quality finitely.
	d2, d4 := get("frame-drop-2"), get("frame-drop-4")
	if d4.VerifiedPct > d2.VerifiedPct || d2.VerifiedPct > base.VerifiedPct {
		t.Fatalf("frame-drop recovery not monotone: base %.1f, drop2 %.1f, drop4 %.1f",
			base.VerifiedPct, d2.VerifiedPct, d4.VerifiedPct)
	}
	if math.IsInf(d2.QualityPSNR, 1) || d4.QualityPSNR > d2.QualityPSNR {
		t.Fatalf("frame-drop quality wrong: drop2 %.1f, drop4 %.1f", d2.QualityPSNR, d4.QualityPSNR)
	}
	// Random VB forces unknown derivation; it must not help the attacker
	// beyond baseline.
	if rv := get("random-vb"); rv.VerifiedPct > base.VerifiedPct*1.25 {
		t.Fatalf("random VB increased verified recovery: %.1f vs %.1f", rv.VerifiedPct, base.VerifiedPct)
	}
	_ = HeuristicsTable(rows).String()
}

func TestChartsBuildAndValidate(t *testing.T) {
	cfg := QuickConfig()
	cfg.Limit = 1

	fig5, err := Fig5InitialLeakage(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fig7, err := Fig7ActionRBRR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fig8, err := Fig8ActionSpeed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fig9, err := Fig9Accessories(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fig12a, err := Fig12aPassiveActiveWild(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fig12b, err := Fig12bLocation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fig15a, err := Fig15aMitigationRBRR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	heur, err := MitigationHeuristicsTable(cfg)
	if err != nil {
		t.Fatal(err)
	}

	charts := []*plot.BarChart{
		Fig5Chart(fig5), Fig7Chart(fig7), Fig8Chart(fig8), Fig9Chart(fig9),
		Fig12aChart(fig12a), LocationChart(fig12b, "Fig 12b"),
		Fig15aChart(fig15a), HeuristicsChart(heur),
	}
	for i, c := range charts {
		if err := c.Validate(); err != nil {
			t.Fatalf("chart %d: %v", i, err)
		}
		if _, err := c.Render(360, 220); err != nil {
			t.Fatalf("chart %d render: %v", i, err)
		}
	}
}

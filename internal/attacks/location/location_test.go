package location

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"github.com/bgbuster/bgbuster/internal/attacks/attacktest"
	"github.com/bgbuster/bgbuster/internal/core"
	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/scene"
)

// buildDictionary generates n distinct scene backgrounds.
func buildDictionary(n int) Dictionary {
	dict := make(Dictionary, 0, n)
	for i := 0; i < n; i++ {
		cfg := scene.DefaultConfig()
		cfg.Clutter = 0.8
		s := scene.Generate(cfg, rand.New(rand.NewSource(int64(1000+i))))
		dict = append(dict, Entry{Name: nameOf(i), Background: s.Base})
	}
	return dict
}

func nameOf(i int) string { return string(rune('A'+i%26)) + string(rune('a'+(i/26)%26)) }

func TestRankIdentifiesTrueBackground(t *testing.T) {
	dict := buildDictionary(20)
	// 35 % random coverage of the true background, entry 7.
	rec := attacktest.FromImage(dict[7].Background, attacktest.RandomKeep(1, 0.35))
	matches, err := Rank(rec, dict, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 20 {
		t.Fatalf("got %d matches", len(matches))
	}
	if matches[0].Name != dict[7].Name {
		t.Fatalf("rank-1 = %q (score %.3f), want %q", matches[0].Name, matches[0].Score, dict[7].Name)
	}
	if !TopK(matches, dict[7].Name, 1) {
		t.Fatal("TopK(1) must succeed for rank-1 entry")
	}
}

func TestRankToleratesShiftAndLighting(t *testing.T) {
	dict := buildDictionary(15)
	truth := dict[3].Background

	// Shift the reconstruction by (3,2) and darken it 30 % (ambient
	// light change): hue-only matching plus the shift search must still
	// find the truth.
	shifted := imagex.New(truth.W, truth.H)
	for y := 0; y < truth.H; y++ {
		for x := 0; x < truth.W; x++ {
			shifted.Set(x, y, truth.At(x-3, y-2))
		}
	}
	shifted.ScaleBrightness(0.7)
	rec := attacktest.FromImage(shifted, attacktest.RandomKeep(2, 0.4))

	matches, err := Rank(rec, dict, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if RankOf(matches, dict[3].Name) > 3 {
		t.Fatalf("shifted+darkened truth ranked %d", RankOf(matches, dict[3].Name))
	}
}

func TestRankEmptyDictionary(t *testing.T) {
	rec := attacktest.FromImage(imagex.New(8, 8), attacktest.All)
	if _, err := Rank(rec, nil, DefaultOptions()); !errors.Is(err, ErrEmptyDictionary) {
		t.Fatalf("error = %v", err)
	}
}

func TestRankMismatchedEntryScoresZero(t *testing.T) {
	dict := Dictionary{
		{Name: "bad-geometry", Background: imagex.New(10, 10)},
		{Name: "nil-bg", Background: nil},
	}
	s := scene.Generate(scene.DefaultConfig(), rand.New(rand.NewSource(5)))
	rec := attacktest.FromImage(s.Base, attacktest.RandomKeep(3, 0.3))
	matches, err := Rank(rec, dict, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		if m.Score != 0 {
			t.Fatalf("mismatched entry %q scored %v", m.Name, m.Score)
		}
	}
}

func TestRankEmptyReconstruction(t *testing.T) {
	dict := buildDictionary(3)
	rec := attacktest.FromImage(dict[0].Background, func(x, y int) bool { return false })
	matches, err := Rank(rec, dict, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		if m.Score != 0 {
			t.Fatal("empty reconstruction must score 0 everywhere")
		}
	}
}

func TestRankDeterministicTieBreak(t *testing.T) {
	dict := buildDictionary(5)
	rec := attacktest.FromImage(dict[0].Background, func(x, y int) bool { return false })
	a, err := Rank(rec, dict, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Rank(rec, dict, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatal("tied ranking must be deterministic")
		}
	}
}

func TestRankOfMissing(t *testing.T) {
	if RankOf(nil, "x") != 0 {
		t.Fatal("missing name must rank 0")
	}
	if TopK(nil, "x", 10) {
		t.Fatal("missing name must fail TopK")
	}
}

func TestRandomBaselineProb(t *testing.T) {
	p, err := RandomBaselineProb(200, 25)
	if err != nil || p != 0.125 {
		t.Fatalf("baseline = %v (%v), want 0.125", p, err)
	}
	if p, _ := RandomBaselineProb(10, 10); p != 1 {
		t.Fatal("k≥n must be certain")
	}
	if p, _ := RandomBaselineProb(10, -5); p != 0 {
		t.Fatal("negative k must be 0")
	}
	if _, err := RandomBaselineProb(0, 1); err == nil {
		t.Fatal("empty dictionary must error")
	}
}

func TestMaxSamplesCapsWork(t *testing.T) {
	dict := buildDictionary(4)
	rec := attacktest.FromImage(dict[1].Background, attacktest.All)
	opts := DefaultOptions()
	opts.MaxSamples = 200 // heavy subsampling must still identify
	matches, err := Rank(rec, dict, opts)
	if err != nil {
		t.Fatal(err)
	}
	if matches[0].Name != dict[1].Name {
		t.Fatalf("subsampled rank-1 = %q", matches[0].Name)
	}
}

// refHueMap is the reference hue map: ToHSV per pixel, -1 below the
// saturation floor.
type refHueMap struct {
	w, h int
	hue  []float32
}

func newRefHueMap(bg *imagex.Image, satFloor float64) *refHueMap {
	m := &refHueMap{w: bg.W, h: bg.H, hue: make([]float32, len(bg.Pix))}
	for i, p := range bg.Pix {
		hsv := p.ToHSV()
		if hsv.S >= satFloor {
			m.hue[i] = float32(hsv.H)
		} else {
			m.hue[i] = -1
		}
	}
	return m
}

// score is the original per-shift transform search, kept verbatim as
// the reference the sample-major search in Rank must reproduce bit for
// bit: for each view and shift, one pass over every sample.
func (m *refHueMap) score(name string, views []rotatedView, opts Options) Match {
	best := Match{Name: name}
	for _, v := range views {
		for dy := -opts.MaxShift; dy <= opts.MaxShift; dy += opts.ShiftStep {
			fdy := float64(dy)
			for dx := -opts.MaxShift; dx <= opts.MaxShift; dx += opts.ShiftStep {
				fdx := float64(dx)
				hits, considered := 0, 0
				for _, p := range v.pts {
					xi, yi := int(p.x+fdx+0.5), int(p.y+fdy+0.5)
					if xi < 0 || xi >= m.w || yi < 0 || yi >= m.h {
						continue
					}
					considered++
					hue := m.hue[yi*m.w+xi]
					if hue < 0 {
						continue
					}
					if imagex.HueDistance(p.hue, float64(hue)) <= opts.HueTol {
						hits++
					}
				}
				if considered == 0 {
					continue
				}
				score := float64(hits) / float64(considered)
				if score > best.Score {
					best.Score = score
					best.ShiftX, best.ShiftY, best.Rotation = dx, dy, v.rot
				}
			}
		}
	}
	return best
}

// refRank is Rank over the reference hue map and per-shift search.
func refRank(rec *core.Reconstruction, dict Dictionary, opts Options) []Match {
	if opts.ShiftStep <= 0 {
		opts.ShiftStep = 1
	}
	w, h := rec.Recovered.W, rec.Recovered.H
	views := rotateSamples(collectSamples(rec, opts), w, h, opts.Rotations)
	matches := make([]Match, 0, len(dict))
	for _, e := range dict {
		if e.Background == nil || e.Background.W != w || e.Background.H != h {
			matches = append(matches, Match{Name: e.Name})
			continue
		}
		matches = append(matches, newRefHueMap(e.Background, opts.SatFloor).score(e.Name, views, opts))
	}
	sort.SliceStable(matches, func(i, j int) bool {
		if matches[i].Score != matches[j].Score {
			return matches[i].Score > matches[j].Score
		}
		return matches[i].Name < matches[j].Name
	})
	return matches
}

// TestRankMatchesReference compares Rank with refRank — score bits,
// best transform and order — over a grid of every option, including
// degenerate shift ranges and steps, on small images whose coverage
// reaches every border (so shifts and rotations push samples out of
// bounds on all four sides), an empty coverage, and a dictionary with
// a nil and a mis-sized entry.
func TestRankMatchesReference(t *testing.T) {
	const w, h = 6, 4
	// Colours whose pairs hit the hue test's edges: exact hues 180
	// apart, two hues across the 0/360 wrap, and pixels below every
	// positive saturation floor.
	palette := []imagex.RGB{
		{R: 255},                 // hue 0
		{G: 255, B: 255},         // hue 180
		{R: 255, B: 8},           // hue just below 360
		{R: 255, G: 8},           // hue just above 0
		{R: 255, G: 255},         // hue 60
		{R: 128, G: 128, B: 128}, // grey, saturation 0
		{R: 200, G: 190, B: 190}, // pale, saturation 0.05
		{},                       // black
	}
	rng := rand.New(rand.NewSource(21))
	truth := imagex.New(w, h)
	for i := range truth.Pix {
		v := rng.Uint32()
		truth.Pix[i] = imagex.RGB{R: uint8(v), G: uint8(v >> 8), B: uint8(v >> 16)}
		if v>>24 < 160 {
			truth.Pix[i] = palette[int(v>>24)%len(palette)]
		}
	}
	// Flat colours: every transform scores alike, so the first one
	// searched must win the tie; pure primaries have float32-exact hues.
	flat := imagex.New(w, h)
	for i := range flat.Pix {
		flat.Pix[i] = imagex.RGB{R: 200, G: 40, B: 40}
	}
	dict := Dictionary{
		{Name: "truth", Background: truth},
		{Name: "flat", Background: flat},
		{Name: "nil", Background: nil},
		{Name: "mis-sized", Background: imagex.New(w+1, h)},
	}
	border := attacktest.FromImage(truth, func(x, y int) bool {
		return x == 0 || y == 0 || x == w-1 || y == h-1 || (x+y)%3 == 0
	})
	empty := attacktest.FromImage(truth, func(x, y int) bool { return false })
	recs := []*core.Reconstruction{border, empty}

	cases := 0
	for _, maxShift := range []int{-1, 0, 1, 4, 7} {
		for _, step := range []int{-1, 0, 1, 2, 3} {
			for _, rots := range [][]float64{nil, {0}, {-4, 4}, {-10, 3, 10}} {
				for _, maxSamples := range []int{0, 50, 4000} {
					for _, satFloor := range []float64{0, 0.12, 1.1} {
						for _, hueTol := range []float64{0, 18, 180, 400} {
							opts := Options{MaxShift: maxShift, ShiftStep: step, Rotations: rots,
								HueTol: hueTol, SatFloor: satFloor, MaxSamples: maxSamples}
							for k, rec := range recs {
								got, err := Rank(rec, dict, opts)
								if err != nil {
									t.Fatal(err)
								}
								if g, want := formatMatches(got), formatMatches(refRank(rec, dict, opts)); g != want {
									t.Fatalf("reconstruction %d, %+v:\ngot:\n%swant:\n%s", k, opts, g, want)
								}
								cases++
							}
						}
					}
				}
			}
		}
	}
	if cases != 5*5*4*3*3*4*len(recs) {
		t.Fatalf("ran %d cases", cases)
	}
}

// Package location implements the paper's Location Inference attack
// (Section VI): match a partially reconstructed real background against
// a dictionary of known backgrounds (and thus locations). Matching is
// hue-only at the pixel level — saturation is ignored because ambient
// lighting shifts it — and the search space includes small shifts and
// rotations of the reconstruction to absorb webcam re-adjustment, the
// paper's two stated technical challenges.
package location

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/bgbuster/bgbuster/internal/core"
	"github.com/bgbuster/bgbuster/internal/imagex"
)

// Entry pairs a location name with its known background image.
type Entry struct {
	Name       string
	Background *imagex.Image
}

// Dictionary is the adversary's auxiliary set of known backgrounds (the
// paper populates 200 of them from E1–E3).
type Dictionary []Entry

// ErrEmptyDictionary is returned when ranking against no entries.
var ErrEmptyDictionary = errors.New("location: empty dictionary")

// Options tunes the matcher.
type Options struct {
	// MaxShift is the half-range of the translation search in pixels
	// (camera re-adjustment); the grid is -MaxShift..+MaxShift in steps
	// of ShiftStep.
	MaxShift  int
	ShiftStep int
	// Rotations lists the camera-rotation angles (degrees) to try; 0 is
	// always tried.
	Rotations []float64
	// HueTol is the maximum hue distance (degrees) for a pixel match.
	HueTol float64
	// SatFloor skips near-grey pixels whose hue is meaningless.
	SatFloor float64
	// MaxSamples bounds the number of recovered pixels scored per
	// transform (0 = all).
	MaxSamples int
}

// DefaultOptions returns the calibrated matcher settings.
func DefaultOptions() Options {
	return Options{
		MaxShift:   4,
		ShiftStep:  2,
		Rotations:  []float64{-4, 4},
		HueTol:     18,
		SatFloor:   0.12,
		MaxSamples: 4000,
	}
}

// Match is one scored dictionary entry.
type Match struct {
	Name  string
	Score float64
	// ShiftX/ShiftY/Rotation describe the best-matching transform.
	ShiftX, ShiftY int
	Rotation       float64
}

// Rank scores every dictionary entry against the reconstruction and
// returns them sorted by descending score (rank 1 first). Ties break by
// name for determinism.
func Rank(rec *core.Reconstruction, dict Dictionary, opts Options) ([]Match, error) {
	if len(dict) == 0 {
		return nil, ErrEmptyDictionary
	}
	if opts.ShiftStep <= 0 {
		opts.ShiftStep = 1
	}
	w, h := rec.Recovered.W, rec.Recovered.H
	views := rotateSamples(collectSamples(rec, opts), w, h, opts.Rotations)
	var hues hueMap // one scratch map, refilled per entry
	matches := make([]Match, 0, len(dict))
	for _, e := range dict {
		if e.Background == nil || e.Background.W != w || e.Background.H != h {
			matches = append(matches, Match{Name: e.Name, Score: 0})
			continue
		}
		hues.fill(e.Background, opts.SatFloor)
		matches = append(matches, hues.score(e.Name, views, opts))
	}
	sort.SliceStable(matches, func(i, j int) bool {
		if matches[i].Score != matches[j].Score {
			return matches[i].Score > matches[j].Score
		}
		return matches[i].Name < matches[j].Name
	})
	return matches, nil
}

// sample is one recovered pixel prepared for matching.
type sample struct {
	x, y int
	hue  float64
}

func collectSamples(rec *core.Reconstruction, opts Options) []sample {
	var out []sample
	w := rec.Recovered.W
	stride := 1
	if opts.MaxSamples > 0 {
		claimed := rec.Coverage.Count()
		if claimed > opts.MaxSamples {
			stride = claimed/opts.MaxSamples + 1
		}
	}
	n := 0
	rec.Coverage.ForEachSet(func(i int) {
		n++
		if n%stride != 0 {
			return
		}
		hsv := rec.Recovered.Pix[i].ToHSV()
		if hsv.S < opts.SatFloor {
			return
		}
		out = append(out, sample{x: i % w, y: i / w, hue: hsv.H})
	})
	return out
}

// rotatedSample is a sample's position after rotation about the image
// centre, before any shift.
type rotatedSample struct {
	x, y, hue float64
}

// rotatedView is the sample set under one camera rotation.
type rotatedView struct {
	rot float64
	pts []rotatedSample
}

// rotateSamples rotates every sample once per angle (0 first, then
// rots). The shift search adds only the integer offset to these points:
// Go evaluates + left to right, so (rotated + dx) has the same bits as
// rotating and shifting in one expression.
func rotateSamples(samples []sample, w, h int, rots []float64) []rotatedView {
	cx := float64(w) / 2
	cy := float64(h) / 2
	views := make([]rotatedView, 0, 1+len(rots))
	for _, rot := range append([]float64{0}, rots...) {
		sin, cos := math.Sincos(rot * math.Pi / 180)
		pts := make([]rotatedSample, len(samples))
		for i, s := range samples {
			fx, fy := float64(s.x)-cx, float64(s.y)-cy
			pts[i] = rotatedSample{x: cos*fx - sin*fy + cx, y: sin*fx + cos*fy + cy, hue: s.hue}
		}
		views = append(views, rotatedView{rot: rot, pts: pts})
	}
	return views
}

// hueMap caches an entry's per-pixel hue so the transform search never
// reconverts colors. A pixel below the saturation floor holds -1; real
// hues are never negative.
type hueMap struct {
	w, h int
	hue  []float32
}

// fill converts bg into the map, reusing its storage.
func (m *hueMap) fill(bg *imagex.Image, satFloor float64) {
	m.w, m.h = bg.W, bg.H
	if cap(m.hue) < len(bg.Pix) {
		m.hue = make([]float32, len(bg.Pix))
	}
	m.hue = m.hue[:len(bg.Pix)]
	for i, p := range bg.Pix {
		hsv := p.ToHSV()
		if hsv.S >= satFloor {
			m.hue[i] = float32(hsv.H)
		} else {
			m.hue[i] = -1
		}
	}
}

// score searches every rotation and shift for the transform under
// which the most in-bounds samples match the map's hue.
func (m *hueMap) score(name string, views []rotatedView, opts Options) Match {
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

// RankOf returns the 1-based position of name in the ranked matches, or
// 0 when absent.
func RankOf(matches []Match, name string) int {
	for i, m := range matches {
		if m.Name == name {
			return i + 1
		}
	}
	return 0
}

// TopK reports whether name ranks within the top k.
func TopK(matches []Match, name string, k int) bool {
	r := RankOf(matches, name)
	return r > 0 && r <= k
}

// RandomBaselineProb returns the paper's baseline: the probability that
// k images drawn uniformly without replacement from a dictionary of size
// n contain the true background.
func RandomBaselineProb(n, k int) (float64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("location: dictionary size %d", n)
	}
	if k >= n {
		return 1, nil
	}
	if k < 0 {
		k = 0
	}
	return float64(k) / float64(n), nil
}

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
	search := newShiftSearch(rotateSamples(collectSamples(rec, opts), w, h, opts.Rotations), w, h, opts)
	var hues []float32 // one scratch map, refilled per entry
	matches := make([]Match, 0, len(dict))
	for _, e := range dict {
		if e.Background == nil || e.Background.W != w || e.Background.H != h {
			matches = append(matches, Match{Name: e.Name, Score: 0})
			continue
		}
		hues = fillHues(hues, e.Background, opts.SatFloor)
		matches = append(matches, search.best(e.Name, hues))
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

// fillHues converts bg into a per-pixel hue map in dst's storage, so
// the transform search never reconverts colors. A pixel below the
// saturation floor holds NaN, which fails every tolerance test.
func fillHues(dst []float32, bg *imagex.Image, satFloor float64) []float32 {
	if cap(dst) < len(bg.Pix) {
		dst = make([]float32, len(bg.Pix))
	}
	dst = dst[:len(bg.Pix)]
	imagex.SaturatedHues(dst, bg.Pix, satFloor, float32(math.NaN()))
	return dst
}

// shiftSearch is one Rank call's transform search over every rotation
// and shift, prepared once and run against each entry's hue map.
//
// Each map index is the per-shift expression int(x+float64(dx)+0.5)
// (and the same for y), evaluated once per sample and offset instead of
// once per entry. Every scored entry has the reconstruction's size, so
// which indices fall off the image — and with it each transform's
// count of in-bounds samples — does not depend on the entry either.
type shiftSearch struct {
	offs  []int // shift offsets: -MaxShift..MaxShift by ShiftStep
	tol   float64
	views []shiftView
	hits  []int // one view's hit counts, [dy][dx], reused per view
}

// shiftView is one rotation's samples with their shifted map indices.
// For n offsets, sample i's indices are cols[i*n:][:n] and
// rows[i*n:][:n]; -1 marks an offset that leaves the image.
type shiftView struct {
	rot        float64
	hue        []float64
	cols       []int // int(x+dx+0.5)
	rows       []int // int(y+dy+0.5)*w
	considered []int // [dy][dx]: samples in bounds under the shift
}

// newShiftSearch precomputes every view's shifted indices and in-bounds
// counts in scratch of O(samples·n + n²) per view, for n offsets.
func newShiftSearch(views []rotatedView, w, h int, opts Options) *shiftSearch {
	s := &shiftSearch{tol: opts.HueTol}
	if s.tol >= 180 {
		// No hue distance exceeds 180, so every saturated pixel
		// matches; +Inf says so to both tests in best.
		s.tol = math.Inf(1)
	}
	for d := -opts.MaxShift; d <= opts.MaxShift; d += opts.ShiftStep {
		s.offs = append(s.offs, d)
	}
	n := len(s.offs)
	s.hits = make([]int, n*n)
	total := 0
	for _, v := range views {
		total += len(v.pts)
	}
	hue := make([]float64, total)
	idx := make([]int, 2*total*n)
	considered := make([]int, len(views)*n*n)
	s.views = make([]shiftView, len(views))
	for vi, v := range views {
		sv := shiftView{rot: v.rot, considered: considered[vi*n*n : (vi+1)*n*n]}
		sv.hue, hue = hue[:len(v.pts)], hue[len(v.pts):]
		sv.cols, idx = idx[:len(v.pts)*n], idx[len(v.pts)*n:]
		sv.rows, idx = idx[:len(v.pts)*n], idx[len(v.pts)*n:]
		for i, p := range v.pts {
			sv.hue[i] = p.hue
			cols, rows := sv.cols[i*n:(i+1)*n], sv.rows[i*n:(i+1)*n]
			for k, d := range s.offs {
				fd := float64(d)
				cols[k], rows[k] = -1, -1
				if xi := int(p.x + fd + 0.5); xi >= 0 && xi < w {
					cols[k] = xi
				}
				if yi := int(p.y + fd + 0.5); yi >= 0 && yi < h {
					rows[k] = yi * w
				}
			}
			for j, r := range rows {
				if r < 0 {
					continue
				}
				for k, c := range cols {
					if c >= 0 {
						sv.considered[j*n+k]++
					}
				}
			}
		}
		s.views[vi] = sv
	}
	return s
}

// best returns the transform under which the largest share of in-bounds
// samples matches hue. It walks sample by sample, so one sample's n×n
// reads fall in one small neighbourhood of the map, and counts hits per
// shift. The shares are then compared in view, dy, dx order with a
// strict >, the order of a search that runs one shift at a time, so a
// tie keeps the first transform in that order.
//
// A hit is imagex.HueDistance(ph, mh) <= tol without the fold's branch.
// Both hues lie in [0, 360) (pinned by TestSaturatedHuesExhaustive in
// imagex), where the distance is d = |ph-mh|, folded to 360-d when
// d > 180. For tol < 180, d <= 180 makes 360-d at least 180, and
// d > 180 fails d <= tol, so the folded test equals
// d <= tol || 360-d <= tol. A tol of +Inf passes both tests; NaN, as a
// tolerance or as an unsaturated pixel's hue, fails both.
func (s *shiftSearch) best(name string, hue []float32) Match {
	best := Match{Name: name}
	n, tol := len(s.offs), s.tol
	for _, v := range s.views {
		hits := s.hits
		clear(hits)
		for i, ph := range v.hue {
			cols := v.cols[i*n : (i+1)*n]
			for j, r := range v.rows[i*n : (i+1)*n] {
				if r < 0 {
					continue
				}
				row := hits[j*n : (j+1)*n]
				for k, c := range cols {
					if c < 0 {
						continue
					}
					d := math.Abs(ph - float64(hue[r+c]))
					row[k] += b2i(d <= tol) | b2i(360-d <= tol)
				}
			}
		}
		for j, dy := range s.offs {
			for k, dx := range s.offs {
				considered := v.considered[j*n+k]
				if considered == 0 {
					continue
				}
				if score := float64(hits[j*n+k]) / float64(considered); score > best.Score {
					best.Score = score
					best.ShiftX, best.ShiftY, best.Rotation = dx, dy, v.rot
				}
			}
		}
	}
	return best
}

// b2i is 1 for true and 0 for false; the compiler turns it into a flag
// move, which keeps the hit count free of data-dependent branches.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
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

// Package mitigate implements the paper's mitigation techniques
// (Section IX): the dynamic virtual background (IX-A) and the heuristics
// of IX-B — per-call random virtual backgrounds, frame dropping, and
// deepfake frame substitution (the First Order Motion stand-in).
package mitigate

import (
	"math"
	"math/rand"

	"github.com/bgbuster/bgbuster/internal/compositor"
	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/vidstream"
)

// DynamicVBConfig tunes the dynamic virtual background.
type DynamicVBConfig struct {
	// Kernel is the half-width of the local window whose raw-frame
	// brightness/saturation statistics drive the adaptation (the paper's
	// Gaussian kernel).
	Kernel int
	// Adapt in [0,1] is how strongly VB brightness/saturation move
	// toward the local real-background statistics.
	Adapt float64
	// HueJitter is the per-pixel, per-frame hue fluctuation amplitude in
	// degrees.
	HueJitter float64
}

// DefaultDynamicVBConfig returns the calibrated mitigation settings.
func DefaultDynamicVBConfig() DynamicVBConfig {
	return DynamicVBConfig{Kernel: 8, Adapt: 0.6, HueJitter: 14}
}

// DynamicVB returns a compositor.VBTransform implementing the paper's
// dynamic virtual background: per frame, each virtual-background pixel's
// brightness and saturation are pulled toward Gaussian-weighted local
// statistics of the corresponding real background region, and its hue
// fluctuates randomly across frames. Matching the virtual background
// pixel-for-pixel (the first stage of the reconstruction framework) then
// fails, flooding the attacker's residue with virtual pixels.
//
// The transform draws its hue jitter from rng, which is not safe for
// concurrent use: give each call composed in parallel its own transform.
func DynamicVB(cfg DynamicVBConfig, rng *rand.Rand) compositor.VBTransform {
	if rng == nil {
		panic("mitigate: nil rng")
	}
	if cfg.Kernel <= 0 {
		cfg.Kernel = 8
	}
	return func(vb, raw *imagex.Image, frameIdx int) *imagex.Image {
		stats := localStats(raw, cfg.Kernel)
		out := imagex.New(vb.W, vb.H)
		for y := 0; y < vb.H; y++ {
			for x := 0; x < vb.W; x++ {
				c := vb.At(x, y).ToHSV()
				st := stats.at(x, y)
				c.V += (st.v - c.V) * cfg.Adapt
				c.S += (st.s - c.S) * cfg.Adapt
				if cfg.HueJitter > 0 {
					c.H += (rng.Float64()*2 - 1) * cfg.HueJitter
				}
				out.Set(x, y, c.ToRGB())
			}
		}
		return out
	}
}

// vsStat is the local (value, saturation) statistic grid.
type vsStat struct {
	cell    int
	cols    int
	rows    int
	cells   []struct{ v, s float64 }
	gridW   int
	gridH   int
	imgW    int
	imgH    int
	kernelR int
}

// localStats computes Gaussian-smoothed brightness/saturation statistics
// of the raw frame on a coarse grid (cell size = kernel).
func localStats(raw *imagex.Image, kernel int) *vsStat {
	cols := (raw.W + kernel - 1) / kernel
	rows := (raw.H + kernel - 1) / kernel
	st := &vsStat{cell: kernel, cols: cols, rows: rows, imgW: raw.W, imgH: raw.H}
	st.cells = make([]struct{ v, s float64 }, cols*rows)
	counts := make([]int, cols*rows)
	for y := 0; y < raw.H; y++ {
		for x := 0; x < raw.W; x++ {
			c := raw.At(x, y).ToHSV()
			i := (y/kernel)*cols + x/kernel
			st.cells[i].v += c.V
			st.cells[i].s += c.S
			counts[i]++
		}
	}
	for i := range st.cells {
		if counts[i] > 0 {
			st.cells[i].v /= float64(counts[i])
			st.cells[i].s /= float64(counts[i])
		}
	}
	// One Gaussian-weighted smoothing pass over the grid (σ = 1 cell).
	smoothed := make([]struct{ v, s float64 }, len(st.cells))
	for gy := 0; gy < rows; gy++ {
		for gx := 0; gx < cols; gx++ {
			var sv, ss, wsum float64
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					nx, ny := gx+dx, gy+dy
					if nx < 0 || nx >= cols || ny < 0 || ny >= rows {
						continue
					}
					w := math.Exp(-float64(dx*dx+dy*dy) / 2)
					sv += st.cells[ny*cols+nx].v * w
					ss += st.cells[ny*cols+nx].s * w
					wsum += w
				}
			}
			smoothed[gy*cols+gx].v = sv / wsum
			smoothed[gy*cols+gx].s = ss / wsum
		}
	}
	st.cells = smoothed
	return st
}

func (st *vsStat) at(x, y int) struct{ v, s float64 } {
	gx, gy := x/st.cell, y/st.cell
	if gx >= st.cols {
		gx = st.cols - 1
	}
	if gy >= st.rows {
		gy = st.rows - 1
	}
	return st.cells[gy*st.cols+gx]
}

// RandomVB generates a never-seen-before virtual background image (the
// paper's per-call random VB heuristic): a random smooth multi-blob
// gradient. An adversary's dataset of popular backgrounds cannot contain
// it, forcing the harder unknown-derivation path.
func RandomVB(w, h int, rng *rand.Rand) *imagex.Image {
	if rng == nil {
		panic("mitigate: nil rng")
	}
	img := imagex.New(w, h)
	baseHue := rng.Float64() * 360
	renderGradient(img, baseHue, rng.Float64()*0.4+0.3)
	blobs := 2 + rng.Intn(4)
	for i := 0; i < blobs; i++ {
		hue := baseHue + rng.Float64()*120 - 60
		c := imagex.HSV{H: hue, S: 0.4 + rng.Float64()*0.5, V: 0.35 + rng.Float64()*0.5}.ToRGB()
		img.FillEllipse(rng.Intn(w), rng.Intn(h), w/6+rng.Intn(w/4+1), h/6+rng.Intn(h/4+1), c)
	}
	return img
}

func renderGradient(img *imagex.Image, hue, sat float64) {
	for y := 0; y < img.H; y++ {
		c := imagex.HSV{H: hue, S: sat, V: 0.3 + 0.5*float64(y)/float64(img.H)}.ToRGB()
		img.FillRect(0, y, img.W, y+1, c)
	}
}

// FrameDrop keeps only every keepEvery-th frame of the call (the paper's
// reduced-frame-sharing heuristic); keepEvery ≤ 1 returns a clone.
func FrameDrop(v *vidstream.Video, keepEvery int) *vidstream.Video {
	out := vidstream.New(v.FPS)
	if keepEvery < 1 {
		keepEvery = 1
	}
	for i := 0; i < len(v.Frames); i += keepEvery {
		out.Frames = append(out.Frames, v.Frames[i].Clone())
	}
	if keepEvery > 1 {
		out.FPS = v.FPS / keepEvery
		if out.FPS < 1 {
			out.FPS = 1
		}
	}
	return out
}

// DeepfakeReplay substitutes every frame after the first with an
// animated variant of the first frame (the paper's First Order Motion
// heuristic): the real frames are never transmitted, so no further real
// background can leak, while the output still moves like a live call.
func DeepfakeReplay(v *vidstream.Video, rng *rand.Rand) (*vidstream.Video, error) {
	if err := v.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		panic("mitigate: nil rng")
	}
	out := vidstream.New(v.FPS)
	first := v.Frames[0]
	out.Frames = append(out.Frames, first.Clone())
	for i := 1; i < len(v.Frames); i++ {
		t := float64(i) / float64(v.FPS)
		dx := int(math.Round(1.5 * math.Sin(2*math.Pi*t/2.7)))
		dy := int(math.Round(0.8 * math.Sin(2*math.Pi*t/1.9)))
		f := imagex.New(first.W, first.H)
		for y := 0; y < f.H; y++ {
			for x := 0; x < f.W; x++ {
				sx, sy := x-dx, y-dy
				if sx < 0 {
					sx = 0
				}
				if sx >= first.W {
					sx = first.W - 1
				}
				if sy < 0 {
					sy = 0
				}
				if sy >= first.H {
					sy = first.H - 1
				}
				f.Set(x, y, first.At(sx, sy))
			}
		}
		f.AddNoise(rng, 1)
		out.Frames = append(out.Frames, f)
	}
	return out, nil
}

package vidstream

import (
	"fmt"
	"math"

	"github.com/bgbuster/bgbuster/internal/imagex"
)

// PSNR returns the peak signal-to-noise ratio between two images in
// decibels; +Inf for identical images. It is the quality metric used to
// price the frame-dropping mitigation (paper Section IX-B notes the
// mitigation reduces call quality).
func PSNR(a, b *imagex.Image) (float64, error) {
	if !a.SameSize(b) {
		return 0, fmt.Errorf("vidstream: psnr %dx%d vs %dx%d: %w", a.W, a.H, b.W, b.H, imagex.ErrBounds)
	}
	var se float64
	for i := range a.Pix {
		dr := float64(a.Pix[i].R) - float64(b.Pix[i].R)
		dg := float64(a.Pix[i].G) - float64(b.Pix[i].G)
		db := float64(a.Pix[i].B) - float64(b.Pix[i].B)
		se += dr*dr + dg*dg + db*db
	}
	mse := se / float64(3*len(a.Pix))
	if mse == 0 {
		return math.Inf(1), nil
	}
	return 20*math.Log10(255) - 10*math.Log10(mse), nil
}

// PlaybackPSNR measures the viewer-perceived quality of a reduced-rate
// call: the reduced video is played back against the original timeline
// by holding each kept frame until the next one (the choppy-video
// effect of frame dropping), and the mean per-frame PSNR is returned.
// keepEvery ≤ 1 returns +Inf (nothing dropped).
func PlaybackPSNR(original *Video, keepEvery int) (float64, error) {
	if err := original.Validate(); err != nil {
		return 0, err
	}
	if keepEvery <= 1 {
		return math.Inf(1), nil
	}
	sum, n := 0.0, 0
	for i, f := range original.Frames {
		held := original.Frames[(i/keepEvery)*keepEvery]
		p, err := PSNR(f, held)
		if err != nil {
			return 0, err
		}
		if math.IsInf(p, 1) {
			continue // identical frames do not penalise the mean
		}
		sum += p
		n++
	}
	if n == 0 {
		return math.Inf(1), nil
	}
	return sum / float64(n), nil
}

// DefaultImpulseTol is the per-channel difference ImpulseNoise treats
// as "unrelated" — on the scale of the reconstruction match tolerance,
// well above camera noise and codec ringing.
const DefaultImpulseTol = 48

// ImpulseNoise estimates impulse ("salt and pepper") corruption: the
// fraction of pixels that differ by more than tol on some channel from
// every in-bounds 4-neighbour. Genuine conference frames are locally
// correlated — even hard edges keep at least one similar neighbour
// along the edge — so clean frames score near zero, while the random
// per-pixel damage left by byte corruption the codec could not conceal
// scores near the corrupted fraction. The session layer's frame-quality
// gate thresholds this score to reject decode-mangled frames before
// their garbage pixels are claimed as residue (DESIGN.md §12).
// Non-positive tol uses DefaultImpulseTol.
func ImpulseNoise(f *imagex.Image, tol int) float64 {
	if f == nil || len(f.Pix) == 0 {
		return 0
	}
	if tol <= 0 {
		tol = DefaultImpulseTol
	}
	w, h := f.W, f.H
	noisy := 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			p := f.Pix[y*w+x]
			isolated := false
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nx, ny := x+d[0], y+d[1]
				if nx < 0 || ny < 0 || nx >= w || ny >= h {
					continue
				}
				isolated = true // has at least one neighbour to disagree with
				if imagex.WithinTol(p, f.Pix[ny*w+nx], tol) {
					isolated = false
					break
				}
			}
			if isolated {
				noisy++
			}
		}
	}
	return float64(noisy) / float64(len(f.Pix))
}

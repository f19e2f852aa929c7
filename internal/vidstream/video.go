// Package vidstream models video-call streams: time-ordered frame
// sequences with a frame rate (the paper's V = {f¹, f², …, fˡ}), plus
// frame differencing, displacement measurement, and camera sensor
// profiles used by the synthetic capture pipeline.
package vidstream

import (
	"errors"
	"fmt"

	"github.com/bgbuster/bgbuster/internal/imagex"
)

// DefaultFPS is the frame rate the paper assumes for its pixel-stability
// threshold ("for a standard 30 fps video stream").
const DefaultFPS = 30

// ErrEmpty is returned by operations that need at least one frame.
var ErrEmpty = errors.New("vidstream: empty video")

// Video is a time-ordered sequence of equally sized frames.
type Video struct {
	FPS    int
	Frames []*imagex.Image
}

// New returns an empty video at the given frame rate; non-positive rates
// fall back to DefaultFPS.
func New(fps int) *Video {
	if fps <= 0 {
		fps = DefaultFPS
	}
	return &Video{FPS: fps}
}

// Append adds a frame. The first frame fixes the video geometry; frames
// of a different size are rejected.
func (v *Video) Append(f *imagex.Image) error {
	if f == nil {
		return errors.New("vidstream: nil frame")
	}
	if len(v.Frames) > 0 && !v.Frames[0].SameSize(f) {
		return fmt.Errorf("vidstream: frame %dx%d does not match video %dx%d: %w",
			f.W, f.H, v.Frames[0].W, v.Frames[0].H, imagex.ErrBounds)
	}
	v.Frames = append(v.Frames, f)
	return nil
}

// Len returns the number of frames (the paper's l).
func (v *Video) Len() int { return len(v.Frames) }

// Size returns the frame geometry, or (0, 0) for an empty video.
func (v *Video) Size() (w, h int) {
	if len(v.Frames) == 0 {
		return 0, 0
	}
	return v.Frames[0].W, v.Frames[0].H
}

// Duration returns the video length in seconds.
func (v *Video) Duration() float64 {
	if v.FPS <= 0 {
		return 0
	}
	return float64(len(v.Frames)) / float64(v.FPS)
}

// Slice returns a shallow sub-video covering frames [from, to); the
// bounds are clamped to the video length.
func (v *Video) Slice(from, to int) *Video {
	if from < 0 {
		from = 0
	}
	if to > len(v.Frames) {
		to = len(v.Frames)
	}
	if from > to {
		from = to
	}
	return &Video{FPS: v.FPS, Frames: v.Frames[from:to]}
}

// Clone returns a deep copy of the video.
func (v *Video) Clone() *Video {
	out := New(v.FPS)
	out.Frames = make([]*imagex.Image, len(v.Frames))
	for i, f := range v.Frames {
		out.Frames[i] = f.Clone()
	}
	return out
}

// Validate checks the video invariants: at least one frame, uniform
// geometry.
func (v *Video) Validate() error {
	if len(v.Frames) == 0 {
		return ErrEmpty
	}
	for i, f := range v.Frames {
		if f == nil {
			return fmt.Errorf("vidstream: nil frame at index %d", i)
		}
		if !f.SameSize(v.Frames[0]) {
			return fmt.Errorf("vidstream: frame %d is %dx%d, video is %dx%d: %w",
				i, f.W, f.H, v.Frames[0].W, v.Frames[0].H, imagex.ErrBounds)
		}
	}
	return nil
}

// ChangedMask returns the mask of pixels that differ between consecutive
// frames i-1 and i by more than tol on any channel. Frame 0 yields an
// empty mask (no predecessor).
func (v *Video) ChangedMask(i, tol int) (*imagex.Mask, error) {
	if i < 0 || i >= len(v.Frames) {
		return nil, fmt.Errorf("vidstream: frame index %d of %d: %w", i, len(v.Frames), imagex.ErrBounds)
	}
	if i == 0 {
		w, h := v.Size()
		return imagex.NewMask(w, h), nil
	}
	return v.Frames[i].DiffMask(v.Frames[i-1], tol)
}

// Displacement implements the paper's Displacement metric for the event
// covering frames [from, to): the percentage of unique pixels that change
// (beyond tol) at least once across the event, relative to resolution.
// The returned value is in [0, 100].
func (v *Video) Displacement(from, to, tol int) (float64, error) {
	if err := v.Validate(); err != nil {
		return 0, err
	}
	if from < 0 || to > len(v.Frames) || from >= to {
		return 0, fmt.Errorf("vidstream: displacement range [%d,%d) of %d frames: %w",
			from, to, len(v.Frames), imagex.ErrBounds)
	}
	w, h := v.Size()
	acc := imagex.NewMask(w, h)
	for i := from + 1; i < to; i++ {
		d, err := v.Frames[i].DiffMask(v.Frames[i-1], tol)
		if err != nil {
			return 0, err
		}
		if err := acc.Union(d); err != nil {
			return 0, err
		}
	}
	return acc.Fraction() * 100, nil
}

// ActionSpeed implements the paper's Action Speed metric: frames in the
// event divided by the frame rate, i.e. the event duration in seconds.
func (v *Video) ActionSpeed(from, to int) float64 {
	if v.FPS <= 0 || to <= from {
		return 0
	}
	return float64(to-from) / float64(v.FPS)
}

// StablePixelCounts returns, for each pixel, the length of the longest
// run of consecutive frames over which its value stayed within tol. The
// unknown-virtual-image derivation (Section V-B) thresholds this at 10
// frames for 30 fps streams.
func (v *Video) StablePixelCounts(tol int) ([]int, error) {
	if err := v.Validate(); err != nil {
		return nil, err
	}
	w, h := v.Size()
	best := make([]int, w*h)
	cur := make([]int, w*h)
	for i := range cur {
		cur[i] = 1
		best[i] = 1
	}
	for i := 1; i < len(v.Frames); i++ {
		prev, now := v.Frames[i-1], v.Frames[i]
		for p := range now.Pix {
			if imagex.WithinTol(prev.Pix[p], now.Pix[p], tol) {
				cur[p]++
			} else {
				cur[p] = 1
			}
			if cur[p] > best[p] {
				best[p] = cur[p]
			}
		}
	}
	return best, nil
}

// Package core implements the paper's primary contribution: the real
// background reconstruction framework (Section V). Given a recorded call
// with a virtual background blended in, it identifies or derives the
// virtual background (V-B), masks the blending blur (V-C), masks the
// video caller (V-D), and accumulates the per-frame leaked-background
// residue into a partial reconstruction of the real background (V-E).
package core

import (
	"errors"
	"fmt"
	"math/bits"

	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/vidstream"
)

// DefaultStabilityThreshold is the paper's pixel-consistency threshold
// for unknown-VB derivation: "for a standard 30 fps video stream, a
// pixel consistent across 10 or more frames has very high probability of
// belonging to the virtual background".
const DefaultStabilityThreshold = 10

// ErrNoCandidates is returned by identification over an empty dataset.
var ErrNoCandidates = errors.New("core: empty candidate dataset")

// IdentifyKnownImage implements the paper's highest-likelihood estimator
// over a dataset D_img of default/popular virtual images: it returns the
// candidate maximising Σ_frames Σ_pixels µ(img ⊕ f). Frames are sampled
// (up to sampleFrames, spread evenly) — matching every frame is
// redundant since the VB region dominates and is static.
func IdentifyKnownImage(v *vidstream.Video, candidates map[string]*imagex.Image, sampleFrames int) (string, *imagex.Image, error) {
	if err := v.Validate(); err != nil {
		return "", nil, fmt.Errorf("core: identify image: %w", err)
	}
	if len(candidates) == 0 {
		return "", nil, ErrNoCandidates
	}
	if sampleFrames <= 0 {
		sampleFrames = 5
	}
	frames := sampleEvenly(v.Frames, sampleFrames)

	bestName, bestScore := "", -1
	var bestImg *imagex.Image
	// Iterate candidates in deterministic (sorted) order so ties break
	// stably.
	for _, name := range sortedKeys(candidates) {
		img := candidates[name]
		score := 0
		for _, f := range frames {
			score += f.MatchCount(img)
		}
		if score > bestScore {
			bestName, bestScore, bestImg = name, score, img
		}
	}
	return bestName, bestImg, nil
}

// IdentifyKnownVideo extends the estimator to a dataset D_vid of virtual
// videos (each a frame set): it returns the video whose best-aligned
// loop maximises the match with the call, together with the phase offset
// such that call frame i corresponds to video frame (i+offset) mod
// period.
func IdentifyKnownVideo(v *vidstream.Video, candidates map[string][]*imagex.Image, sampleFrames int) (string, []*imagex.Image, int, error) {
	if err := v.Validate(); err != nil {
		return "", nil, 0, fmt.Errorf("core: identify video: %w", err)
	}
	if len(candidates) == 0 {
		return "", nil, 0, ErrNoCandidates
	}
	if sampleFrames <= 0 {
		sampleFrames = 8
	}
	idxs := sampleIndices(v.Len(), sampleFrames)

	bestName, bestScore, bestOffset := "", -1, 0
	var bestFrames []*imagex.Image
	for _, name := range sortedKeysSlice(candidates) {
		frames := candidates[name]
		if len(frames) == 0 {
			continue
		}
		for off := 0; off < len(frames); off++ {
			score := 0
			for _, i := range idxs {
				score += v.Frames[i].MatchCount(frames[(i+off)%len(frames)])
			}
			if score > bestScore {
				bestName, bestScore, bestOffset, bestFrames = name, score, off, frames
			}
		}
	}
	if bestFrames == nil {
		return "", nil, 0, ErrNoCandidates
	}
	return bestName, bestFrames, bestOffset, nil
}

// DerivedImage is an unknown virtual background reconstructed from the
// call itself (paper Section V-B, "Using Unknown Virtual Image").
type DerivedImage struct {
	// Img holds the derived pixel values; only positions with Known set
	// are meaningful.
	Img *imagex.Image
	// Known marks pixels whose value was stable long enough to qualify.
	Known *imagex.Mask
}

// Coverage returns the fraction of pixels derived.
func (d *DerivedImage) Coverage() float64 { return d.Known.Fraction() }

// DeriveUnknownImage reconstructs the virtual image from pixel
// stability: any pixel whose value stays constant (within tol) for at
// least threshold consecutive frames is taken as virtual background.
// The caller's stationary silhouette region stays unknown, exactly as
// the paper observes; MergeDerived can fill it from other calls.
func DeriveUnknownImage(v *vidstream.Video, threshold, tol int) (*DerivedImage, error) {
	if err := v.Validate(); err != nil {
		return nil, fmt.Errorf("core: derive image: %w", err)
	}
	if threshold <= 0 {
		threshold = DefaultStabilityThreshold
	}
	w, h := v.Size()
	out := &DerivedImage{Img: imagex.New(w, h), Known: imagex.NewMask(w, h)}
	if len(v.Frames) == 1 && threshold <= 1 {
		copy(out.Img.Pix, v.Frames[0].Pix)
		out.Known = imagex.NewFullMask(w, h)
		return out, nil
	}
	// Track the current stable run per pixel and commit the value once
	// the run reaches the threshold.
	runLen := make([]uint32, w*h)
	for i := range runLen {
		runLen[i] = 1
	}
	stable := imagex.NewMask(w, h)
	for fi := 1; fi < len(v.Frames); fi++ {
		now := v.Frames[fi]
		imagex.MatchMaskInto(stable, v.Frames[fi-1], now, tol)
		if advanceRuns(stable, out.Known, runLen, threshold) > 0 {
			commitStable(out, stable, now)
		}
	}
	return out, nil
}

// advanceRuns advances the per-pixel stability runs by one frame pair.
// On entry m is the pair's match mask, MatchMaskInto(prev, now, tol):
// a set pixel's run grows by one, saturating at T's maximum, and any
// other pixel's run restarts at 1. On return m holds the commits — the
// pixels whose run has reached thr and that known does not mark yet —
// and advanceRuns returns how many there are. The batch and stream
// derivations share it, so both apply one stability compare.
func advanceRuns[T uint16 | uint32](m, known *imagex.Mask, runs []T, thr int) int {
	wpr := m.WordsPerRow()
	commits, i := 0, 0
	for y := 0; y < m.H; y++ {
		for wx := 0; wx < wpr; wx++ {
			rs := runs[i : i+min(64, m.W-wx<<6)]
			i += len(rs)
			st, kn := m.Word(y, wx), known.Word(y, wx)
			full := ^uint64(0) >> uint(64-len(rs))
			var c uint64
			if st == full && kn == full {
				// Every pixel is stable and none can commit.
				for b, r := range rs {
					if r+1 != 0 {
						rs[b] = r + 1
					}
				}
			} else {
				for b, r := range rs {
					if st>>uint(b)&1 == 0 {
						rs[b] = 1
						continue
					}
					if r+1 != 0 {
						r++
						rs[b] = r
					}
					if int(r) >= thr {
						c |= 1 << uint(b)
					}
				}
				c &^= kn
			}
			m.AndNotWord(y, wx, st&^c)
			commits += bits.OnesCount64(c)
		}
	}
	return commits
}

// commitStable marks the commits in d.Known and copies their pixels
// from now into d.Img.
func commitStable(d *DerivedImage, commits *imagex.Mask, now *imagex.Image) {
	_ = d.Known.Union(commits) // same geometry by construction
	commits.ForEachSet(func(i int) { d.Img.Pix[i] = now.Pix[i] })
}

// MergeDerived combines derivations from multiple calls using the same
// virtual background (the paper's mitigation for stationary callers):
// earlier arguments win where both are known.
func MergeDerived(imgs ...*DerivedImage) (*DerivedImage, error) {
	if len(imgs) == 0 {
		return nil, ErrNoCandidates
	}
	base := imgs[0]
	out := &DerivedImage{Img: base.Img.Clone(), Known: base.Known.Clone()}
	for _, d := range imgs[1:] {
		if d.Img.W != out.Img.W || d.Img.H != out.Img.H {
			return nil, fmt.Errorf("core: merge %dx%d with %dx%d: %w",
				d.Img.W, d.Img.H, out.Img.W, out.Img.H, imagex.ErrBounds)
		}
		// Earlier arguments win: copy only where d knows and out does not.
		fill := d.Known.Clone()
		_ = fill.Subtract(out.Known) // same geometry, checked above
		fill.ForEachSet(func(i int) {
			out.Img.Pix[i] = d.Img.Pix[i]
		})
		_ = out.Known.Union(fill)
	}
	return out, nil
}

// DerivedVideo is an unknown looping virtual video reconstructed from
// the call (paper Section V-B, "Using Unknown Virtual Video Frame").
type DerivedVideo struct {
	Period int
	Phases []*DerivedImage
}

// DeriveUnknownVideo detects the loop period of an unknown virtual video
// by per-phase pixel consistency, then derives each phase image. Periods
// 2..maxPeriod are scored on a subsampled pixel grid; the period whose
// phase-aligned samples are most consistent wins. minRepeats loop
// repetitions must fit in the call for a period to be considered.
func DeriveUnknownVideo(v *vidstream.Video, maxPeriod, tol int) (*DerivedVideo, error) {
	if err := v.Validate(); err != nil {
		return nil, fmt.Errorf("core: derive video: %w", err)
	}
	const minRepeats = 3
	if maxPeriod < 2 {
		maxPeriod = 2
	}
	if maxPeriod > v.Len()/minRepeats {
		maxPeriod = v.Len() / minRepeats
	}
	if maxPeriod < 2 {
		return nil, fmt.Errorf("core: call too short (%d frames) for loop detection", v.Len())
	}
	w, h := v.Size()

	// Score each candidate period on a coarse pixel grid.
	bestP, bestScore := 0, -1.0
	for p := 2; p <= maxPeriod; p++ {
		consistent, total := 0, 0
		for y := 0; y < h; y += 4 {
			for x := 0; x < w; x += 4 {
				idx := y*w + x
				for phase := 0; phase < p; phase++ {
					// Compare successive repetitions of this phase.
					for fi := phase + p; fi < v.Len(); fi += p {
						total++
						if imagex.WithinTol(v.Frames[fi].Pix[idx], v.Frames[fi-p].Pix[idx], tol) {
							consistent++
						}
					}
				}
			}
		}
		if total == 0 {
			continue
		}
		score := float64(consistent) / float64(total)
		// Prefer the smallest period achieving (effectively) the best
		// score: any multiple of the true period scores as well.
		if score > bestScore+1e-9 {
			bestP, bestScore = p, score
		}
	}
	if bestP == 0 {
		return nil, fmt.Errorf("core: loop period not detected")
	}

	out := &DerivedVideo{Period: bestP}
	for phase := 0; phase < bestP; phase++ {
		sub := vidstream.New(v.FPS)
		for fi := phase; fi < v.Len(); fi += bestP {
			if err := sub.Append(v.Frames[fi]); err != nil {
				return nil, fmt.Errorf("core: phase %d: %w", phase, err)
			}
		}
		// Within one phase the virtual video is constant, so a short
		// stability threshold suffices.
		d, err := DeriveUnknownImage(sub, 3, tol)
		if err != nil {
			return nil, fmt.Errorf("core: phase %d: %w", phase, err)
		}
		out.Phases = append(out.Phases, d)
	}
	return out, nil
}

// vbMaskInto writes the VBM of frame against vb into dst: the pixels
// matching within tol, restricted to known when it is non-nil. A vb of
// another geometry matches nothing. It allocates only when dst is nil
// or mis-sized.
func vbMaskInto(dst *imagex.Mask, frame, vb *imagex.Image, known *imagex.Mask, tol int) *imagex.Mask {
	if !frame.SameSize(vb) {
		if dst == nil || dst.W != frame.W || dst.H != frame.H {
			return imagex.NewMask(frame.W, frame.H)
		}
		dst.Clear()
		return dst
	}
	m := imagex.MatchMaskInto(dst, frame, vb, tol)
	if known != nil {
		_ = m.Intersect(known) // a derived image and its Known mask share a geometry
	}
	return m
}

func sampleEvenly(frames []*imagex.Image, n int) []*imagex.Image {
	idxs := sampleIndices(len(frames), n)
	out := make([]*imagex.Image, 0, len(idxs))
	for _, i := range idxs {
		out = append(out, frames[i])
	}
	return out
}

func sampleIndices(total, n int) []int {
	if n >= total {
		out := make([]int, total)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, 0, n)
	for k := 0; k < n; k++ {
		out = append(out, k*total/n)
	}
	return out
}

func sortedKeys(m map[string]*imagex.Image) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sortStrings(keys)
	return keys
}

func sortedKeysSlice(m map[string][]*imagex.Image) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sortStrings(keys)
	return keys
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

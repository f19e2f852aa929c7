package core

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/segment"
	"github.com/bgbuster/bgbuster/internal/vidstream"
)

// DefaultPhi is the blending blur radius the paper calibrated for Zoom
// (φ = 20 at 1280×720). At the simulator's default 160×120 geometry the
// proportional radius is 3; EstimatePhi recovers it empirically exactly
// like the paper's adversary does.
const DefaultPhi = 3

// VBMode selects how the virtual background is obtained.
type VBMode int

// Virtual background acquisition modes (paper Section V-B scenarios).
const (
	// VBKnownImage matches against a dataset of known virtual images.
	VBKnownImage VBMode = iota + 1
	// VBKnownVideo matches against a dataset of known virtual videos.
	VBKnownVideo
	// VBUnknownImage derives the virtual image from the call itself.
	VBUnknownImage
	// VBUnknownVideo derives the looping virtual video from the call.
	VBUnknownVideo
)

// String returns the report label of the mode.
func (m VBMode) String() string {
	switch m {
	case VBKnownImage:
		return "known-image"
	case VBKnownVideo:
		return "known-video"
	case VBUnknownImage:
		return "unknown-image"
	case VBUnknownVideo:
		return "unknown-video"
	default:
		return fmt.Sprintf("vbmode(%d)", int(m))
	}
}

// Options configures the reconstruction framework.
type Options struct {
	Mode VBMode

	// KnownImages is D_img for VBKnownImage.
	KnownImages map[string]*imagex.Image
	// KnownVideos is D_vid for VBKnownVideo.
	KnownVideos map[string][]*imagex.Image
	// AuxDerived optionally seeds unknown-image derivation with
	// derivations from other calls using the same VB.
	AuxDerived []*DerivedImage

	// MatchTol is the per-channel tolerance for VB pixel matching; it
	// absorbs camera sensor noise. Zero uses the default 14; a negative
	// tolerance matches nothing.
	MatchTol int
	// StabilityThreshold for unknown derivation; non-positive uses
	// DefaultStabilityThreshold.
	StabilityThreshold int
	// MaxLoopPeriod bounds unknown-video period detection; non-positive
	// uses the default 40.
	MaxLoopPeriod int

	// Phi is the blending blur radius φ; non-positive uses DefaultPhi.
	Phi int

	// IdentifyAfter is how many frames a StreamReconstructor buffers
	// before pinning known-image identification; non-positive uses
	// DefaultIdentifyAfter. Calls shorter than the window pin at
	// Finalize instead. The batch Reconstruct ignores it (it always
	// sees the whole call).
	IdentifyAfter int

	// Segmenter produces the video caller mask (the paper uses
	// DeepLabv3; the simulation uses segment.OfflineSegmenter).
	Segmenter segment.Segmenter
	// ColorRefine enables the statistical color-based VCM correction
	// (paper Section V-D).
	ColorRefine bool
	// ColorFreqThreshold is the relative frequency below which a color
	// observed inside the VCM is considered leaked background;
	// non-positive uses the default 0.004.
	ColorFreqThreshold float64

	// Workers bounds the goroutines used for the frame-independent
	// stages of Reconstruct (color-refinement histogram/drop and
	// per-frame masking + residue extraction); non-positive means
	// GOMAXPROCS. Results are bit-identical at any worker count: every
	// per-frame product lands in a frame-indexed slot and residues are
	// merged in ascending frame order afterwards.
	Workers int
}

// DefaultOptions returns the calibrated defaults for a known-image
// attack with the built-in segmenter left nil (caller must set it).
func DefaultOptions() Options {
	return Options{
		Mode:               VBKnownImage,
		MatchTol:           14,
		StabilityThreshold: DefaultStabilityThreshold,
		MaxLoopPeriod:      40,
		Phi:                DefaultPhi,
		ColorRefine:        true,
		ColorFreqThreshold: 0.004,
	}
}

// withDefaults fills every unset tunable of opts with its DefaultOptions
// value. Reconstruct, ResolveVBMasker and the stream share it, so a zero
// field means the same thing in batch and stream.
func withDefaults(opts Options) Options {
	d := DefaultOptions()
	if opts.MatchTol == 0 {
		opts.MatchTol = d.MatchTol
	}
	if opts.StabilityThreshold <= 0 {
		opts.StabilityThreshold = d.StabilityThreshold
	}
	if opts.MaxLoopPeriod <= 0 {
		opts.MaxLoopPeriod = d.MaxLoopPeriod
	}
	if opts.Phi <= 0 {
		opts.Phi = d.Phi
	}
	if opts.ColorFreqThreshold <= 0 {
		opts.ColorFreqThreshold = d.ColorFreqThreshold
	}
	if opts.IdentifyAfter <= 0 {
		opts.IdentifyAfter = DefaultIdentifyAfter
	}
	return opts
}

// Reconstruction is the framework output.
type Reconstruction struct {
	// Recovered holds the latest leaked value per claimed pixel; only
	// positions with Coverage set are meaningful.
	Recovered *imagex.Image
	// Coverage marks every pixel claimed leaked in ≥1 frame. Its
	// fraction is the paper's RBRR numerator.
	Coverage *imagex.Mask
	// LBFrames counts frames whose leak residue was accumulated and
	// LBBits sums their leak-mask set bits, so the mean per-frame leak
	// size is LBBits/LBFrames. For a resumed stream they cover frames
	// fed since the resume (they are not part of the checkpoint
	// contract).
	LBFrames uint64
	LBBits   uint64
	// VBName is the identified virtual background ("" when derived).
	VBName string
	// VBMode echoes the mode used.
	VBMode VBMode
	// DerivedCoverage is the unknown-derivation coverage (0 for known
	// modes).
	DerivedCoverage float64
}

// RBRR returns the claimed Reconstructed Background Recovery Rate in
// percent (paper Section VIII-A).
func (r *Reconstruction) RBRR() float64 { return r.Coverage.Fraction() * 100 }

// Reconstruct runs the full framework of the paper's Figure 4 over a
// recorded call. oracles supplies the true silhouette per frame to the
// *simulated* segmenter (a real deployment would run a CNN on the frame
// instead; see DESIGN.md §2) — no other part of the framework reads it.
func Reconstruct(v *vidstream.Video, oracles []*imagex.Mask, opts Options) (*Reconstruction, error) {
	if err := v.Validate(); err != nil {
		return nil, fmt.Errorf("core: reconstruct: %w", err)
	}
	if opts.Segmenter == nil {
		return nil, errors.New("core: nil segmenter")
	}
	if len(oracles) != v.Len() {
		return nil, fmt.Errorf("core: %d oracles for %d frames", len(oracles), v.Len())
	}
	opts = withDefaults(opts)
	w, h := v.Size()

	// Step 1: obtain the virtual background per frame.
	vbFor, name, derivedCov, err := resolveVB(v, opts)
	if err != nil {
		return nil, err
	}

	rec := &Reconstruction{
		Recovered:       imagex.New(w, h),
		Coverage:        imagex.NewMask(w, h),
		VBName:          name,
		VBMode:          opts.Mode,
		DerivedCoverage: derivedCov,
	}

	// Step 2: per-frame VCM via the (simulated) offline segmenter. This
	// stage stays serial: the simulated segmenters are stateful (shared
	// rng, temporal smoothing), and the rng draw order defines the
	// reference outputs.
	vcms := make([]*imagex.Mask, v.Len())
	for i, f := range v.Frames {
		vcms[i] = opts.Segmenter.Segment(f, oracles[i])
		if vcms[i].W != w || vcms[i].H != h {
			return nil, fmt.Errorf("core: frame %d: %dx%d caller mask for %dx%d frames: %w",
				i, vcms[i].W, vcms[i].H, w, h, imagex.ErrBounds)
		}
	}

	workers := reconWorkers(opts.Workers, v.Len())

	// Step 3: statistical color-based refinement of the VCMs.
	if opts.ColorRefine {
		refineVCMsByColor(v, vcms, opts.ColorFreqThreshold, workers)
	}

	// Step 4: per-frame leak masks, fanned out across the worker pool.
	// Each worker runs one frameKernel and writes frame i's LB over
	// vcms[i] (the colour histogram no longer needs it), with the LB's
	// band occupancy in frame i's slice of dirty.
	nb := imagex.Bands(h, lbTileRows)
	dirty := make([]bool, v.Len()*nb)
	forFrames(v.Len(), workers, func() func(i int) {
		k := newFrameKernel(w, h, opts)
		return func(i int) {
			vb, known := vbFor(i)
			k.leak(vcms[i], v.Frames[i], vb, known, dirty[i*nb:(i+1)*nb])
		}
	})

	// Merge residues in ascending frame order so "latest leaked value
	// per pixel" semantics match the serial pass exactly.
	covFull := make([]bool, nb)
	for i, lb := range vcms {
		rec.applyLeak(lb, v.Frames[i], dirty[i*nb:(i+1)*nb], covFull)
	}
	return rec, nil
}

// reconWorkers resolves the effective worker count for n frames.
func reconWorkers(configured, n int) int {
	w := configured
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// forFrames runs fn(i) for every i in [0, n) across up to `workers`
// goroutines. mkFn builds one closure per worker, giving each its own
// scratch state. Frames are handed out via an atomic cursor; callers
// must keep per-frame outputs in frame-indexed slots so the result is
// independent of the interleaving.
func forFrames(n, workers int, mkFn func() func(i int)) {
	if workers <= 1 {
		fn := mkFn()
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn := mkFn()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ResolveVBMasker exposes the framework's first stage: it returns the
// per-frame virtual-background-mask function for the configured mode,
// plus the identified VB name (known modes) and the derivation coverage
// (unknown modes). The VBMR experiment measures this stage in isolation.
func ResolveVBMasker(v *vidstream.Video, opts Options) (func(i int, f *imagex.Image) *imagex.Mask, string, float64, error) {
	opts = withDefaults(opts)
	vbFor, name, cov, err := resolveVB(v, opts)
	if err != nil {
		return nil, "", 0, err
	}
	return func(i int, f *imagex.Image) *imagex.Mask {
		vb, known := vbFor(i)
		return vbMaskInto(nil, f, vb, known, opts.MatchTol)
	}, name, cov, nil
}

// vbLookup returns frame i's virtual background: the image to match
// and, for a derived background, the mask of positions it knows (nil
// when every position is known).
type vbLookup func(i int) (*imagex.Image, *imagex.Mask)

// resolveVB identifies or derives the virtual background according to
// the mode and returns its per-frame lookup.
func resolveVB(v *vidstream.Video, opts Options) (vbLookup, string, float64, error) {
	switch opts.Mode {
	case VBKnownImage:
		name, img, err := IdentifyKnownImage(v, opts.KnownImages, 0)
		if err != nil {
			return nil, "", 0, err
		}
		return func(int) (*imagex.Image, *imagex.Mask) { return img, nil }, name, 0, nil

	case VBKnownVideo:
		name, frames, offset, err := IdentifyKnownVideo(v, opts.KnownVideos, 0)
		if err != nil {
			return nil, "", 0, err
		}
		return func(i int) (*imagex.Image, *imagex.Mask) {
			return frames[(i+offset)%len(frames)], nil
		}, name, 0, nil

	case VBUnknownImage:
		d, err := DeriveUnknownImage(v, opts.StabilityThreshold, opts.MatchTol)
		if err != nil {
			return nil, "", 0, err
		}
		if len(opts.AuxDerived) > 0 {
			merged, err := MergeDerived(append([]*DerivedImage{d}, opts.AuxDerived...)...)
			if err != nil {
				return nil, "", 0, err
			}
			d = merged
		}
		return func(int) (*imagex.Image, *imagex.Mask) { return d.Img, d.Known }, "", d.Coverage(), nil

	case VBUnknownVideo:
		dv, err := DeriveUnknownVideo(v, opts.MaxLoopPeriod, opts.MatchTol)
		if err != nil {
			return nil, "", 0, err
		}
		cov := 0.0
		for _, ph := range dv.Phases {
			cov += ph.Coverage()
		}
		cov /= float64(len(dv.Phases))
		return func(i int) (*imagex.Image, *imagex.Mask) {
			ph := dv.Phases[i%dv.Period]
			return ph.Img, ph.Known
		}, "", cov, nil

	default:
		return nil, "", 0, fmt.Errorf("core: unsupported VB mode %v", opts.Mode)
	}
}

// refineVCMsByColor implements the paper's color-based VCM correction:
// colors seen with very low relative frequency inside the caller mask
// across the whole call are presumed to be leaked background and their
// pixels are dropped from the VCM. Colors are quantised to 4 bits per
// channel (4096 bins) to absorb sensor noise.
//
// The histogram counts exactly the VCM pixels, so the cut is known
// before the counting pass. That pass fans out across frames into
// per-worker histograms and flags, per frame, the pixels whose partial
// bin count right after their own increment is at most the cut. A
// partial count never exceeds the merged one, so the flags hold every
// pixel the merged histogram drops, whatever the frame order or worker
// count; the drop pass re-checks only them.
func refineVCMsByColor(v *vidstream.Video, vcms []*imagex.Mask, threshold float64, workers int) {
	n := v.Len()
	total := 0
	for _, m := range vcms {
		total += m.Count()
	}
	cut := int(threshold * float64(total))
	w, h := v.Size()
	cand := imagex.NewMasks(w, h, n)

	hists := make([][]int, 0, workers)
	var histsMu sync.Mutex
	forFrames(n, workers, func() func(i int) {
		hist := make([]int, 4096)
		histsMu.Lock()
		hists = append(hists, hist)
		histsMu.Unlock()
		return func(i int) { histQuant12(hist, v.Frames[i], vcms[i], &cand[i], cut) }
	})

	hist := make([]int, 4096)
	for _, part := range hists {
		for b, c := range part {
			hist[b] += c
		}
	}
	forFrames(n, workers, func() func(i int) {
		return func(i int) { dropRareColors(vcms[i], v.Frames[i], hist, cut, &cand[i]) }
	})
}

// histQuant12 adds the quant12 bin of every VCM pixel of frame to hist
// and overwrites every word of cand with the drop candidates: the VCM
// pixels whose bin count right after their own increment is at most
// cut. That count never exceeds the bin's final count, in hist or in
// any sum of hist with other histograms, so a pixel left out ends above
// cut and dropRareColors needs to re-check only the candidates.
func histQuant12(hist []int, frame *imagex.Image, vcm, cand *imagex.Mask, cut int) {
	wpr := vcm.WordsPerRow()
	for y := 0; y < vcm.H; y++ {
		pix := frame.Pix[y*vcm.W:]
		for j := 0; j < wpr; j++ {
			var c uint64
			for w := vcm.Word(y, j); w != 0; w &= w - 1 {
				b := bits.TrailingZeros64(w)
				q := quant12(pix[j<<6+b])
				n := hist[q] + 1
				hist[q] = n
				c |= uint64(n-cut-1) >> 63 << uint(b) // n <= cut, branch-free
			}
			cand.SetWord(y, j, c)
		}
	}
}

// dropRareColors clears from vcm every pixel of cand whose quant12 bin
// count in the final histogram hist is at most cut, one word at a time.
// cand is a superset of the drop set within vcm, such as histQuant12's
// candidates.
func dropRareColors(vcm *imagex.Mask, frame *imagex.Image, hist []int, cut int, cand *imagex.Mask) {
	wpr := vcm.WordsPerRow()
	for y := 0; y < vcm.H; y++ {
		pix := frame.Pix[y*vcm.W:]
		for j := 0; j < wpr; j++ {
			var drop uint64
			for w := cand.Word(y, j); w != 0; w &= w - 1 {
				b := bits.TrailingZeros64(w)
				if hist[quant12(pix[j<<6+b])] <= cut {
					drop |= 1 << uint(b)
				}
			}
			if drop != 0 {
				vcm.AndNotWord(y, j, drop)
			}
		}
	}
}

// quant12 maps a color to a 12-bit bin (4 bits per channel).
func quant12(c imagex.RGB) int {
	return int(c.R>>4)<<8 | int(c.G>>4)<<4 | int(c.B>>4)
}

// EstimatePhi recovers the blending blur radius exactly as the paper's
// adversary does (Section VIII-C): apply a virtual background to a
// static scene with the target software, then measure the average width
// of the band that is neither pure raw frame nor pure virtual image.
// The width is estimated as band area divided by the length of the
// VB-side band contour.
func EstimatePhi(blended, raw, vb *imagex.Image, tol int) (int, error) {
	if !blended.SameSize(raw) || !blended.SameSize(vb) {
		return 0, fmt.Errorf("core: estimate phi: geometry mismatch: %w", imagex.ErrBounds)
	}
	// The band is every pixel that is neither pure raw frame nor pure
	// virtual image.
	band := imagex.MatchMaskInto(nil, blended, raw, tol)
	_ = band.Union(imagex.MatchMaskInto(nil, blended, vb, tol)) // same geometry, checked above
	band.Invert()
	if band.Count() == 0 {
		return 0, nil
	}
	contour := band.Boundary().Count()
	if contour == 0 {
		return 0, nil
	}
	// The band hugs the silhouette on both sides: its two long contours
	// each measure roughly the silhouette perimeter, so width ≈
	// area / (contour/2).
	phi := int(float64(band.Count())/(float64(contour)/2) + 0.5)
	if phi < 1 {
		phi = 1
	}
	return phi, nil
}

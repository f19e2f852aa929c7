package segment

import (
	"math/bits"
	"math/rand"

	"github.com/bgbuster/bgbuster/internal/imagex"
)

// Segmenter produces a video-caller mask (VCM) for a blended frame. The
// oracle argument is the true silhouette: simulated segmenters perturb
// it instead of running a CNN (see the package comment). Implementations
// must tolerate a nil oracle by returning an empty mask.
type Segmenter interface {
	Segment(frame *imagex.Image, oracle *imagex.Mask) *imagex.Mask
}

// IntoSegmenter is an optional extension: SegmentInto writes the mask
// into a caller-supplied scratch instead of allocating, returning the
// mask written (dst, or a fresh one when dst is nil or mis-sized). The
// streaming hot path type-asserts for it so a cooperating segmenter
// keeps the per-frame pipeline allocation-free; segmenters that only
// implement Segment still work, at one mask allocation per frame.
// OfflineSegmenter cooperates: SegmentInto makes exactly the rng draws
// Segment makes, in the same order, so the golden outputs hold on
// either path. Matting stays Segment-only; it runs on the compositor
// side, outside the attacker's per-frame pipeline.
type IntoSegmenter interface {
	Segmenter
	SegmentInto(dst *imagex.Mask, frame *imagex.Image, oracle *imagex.Mask) *imagex.Mask
}

// OfflineSegmenter simulates the attacker's post-processing person
// segmentation (DeepLabv3 in the paper, Section V-D: "very accurate…
// cannot be applied in real-time… an attacker can certainly use it for
// post-processing"). It is substantially more accurate than the
// real-time Matting but still imperfect: boundary dither plus a
// systematic margin that swallows some leaked background near the
// caller — exactly the residue the paper's color-based refinement then
// recovers.
//
// An OfflineSegmenter is not safe for concurrent use: it owns an rng
// and the scratch SegmentInto reuses.
type OfflineSegmenter struct {
	// Margin dilates the mask outward by this many pixels (DeepLabv3's
	// conservative halo around people).
	Margin int
	// Dither is the probability that an outer-boundary pixel flips.
	Dither float64

	rng *rand.Rand

	// SegmentInto scratch: the margin dilator (rebuilt when the oracle
	// geometry or Margin changes) and five row buffers — three rows of
	// h3 for the boundary pass, the previous and current rows for the
	// speckle pass.
	dil                      *imagex.Dilator
	dilW, dilH, dilMargin    int
	h3a, h3b, h3c, prev, cur []uint64
}

var _ IntoSegmenter = (*OfflineSegmenter)(nil)

// NewOfflineSegmenter returns a segmenter with the calibrated default
// error profile; rng must be non-nil.
func NewOfflineSegmenter(rng *rand.Rand) *OfflineSegmenter {
	if rng == nil {
		panic("segment: nil rng")
	}
	return &OfflineSegmenter{Margin: 1, Dither: 0.05, rng: rng}
}

// Segment returns the estimated caller mask in a fresh allocation.
func (s *OfflineSegmenter) Segment(frame *imagex.Image, oracle *imagex.Mask) *imagex.Mask {
	return s.SegmentInto(nil, frame, oracle)
}

// SegmentInto writes the estimated caller mask into dst, allocating
// only when dst is nil or sized unlike the oracle (frame-sized for a
// nil oracle, which gives an empty mask). The oracle is dilated by
// Margin; then, when Dither > 0, each pixel of the dilated mask's
// boundary is cleared with probability Dither, and each pixel of the
// one-pixel outer ring of the result is set with probability Dither/3.
// Both passes visit their pixels in ascending row-major order, one
// rng draw per pixel (DESIGN.md §7.3).
func (s *OfflineSegmenter) SegmentInto(dst *imagex.Mask, frame *imagex.Image, oracle *imagex.Mask) *imagex.Mask {
	if oracle == nil {
		if dst == nil || dst.W != frame.W || dst.H != frame.H {
			return imagex.NewMask(frame.W, frame.H)
		}
		dst.Clear()
		return dst
	}
	if s.dil == nil || s.dilW != oracle.W || s.dilH != oracle.H || s.dilMargin != s.Margin {
		s.dil = imagex.NewDilator(oracle.W, oracle.H, s.Margin)
		s.dilW, s.dilH, s.dilMargin = oracle.W, oracle.H, s.Margin
		wpr := oracle.WordsPerRow()
		rows := make([]uint64, 5*wpr)
		s.h3a, s.h3b, s.h3c = rows[:wpr], rows[wpr:2*wpr], rows[2*wpr:3*wpr]
		s.prev, s.cur = rows[3*wpr:4*wpr], rows[4*wpr:]
	}
	est := s.dil.DilateInto(dst, oracle)
	if s.Dither > 0 {
		s.flipBoundary(est)
		s.speckleRing(est)
	}
	return est
}

// flipBoundary clears each boundary pixel of est with probability
// Dither. Boundary row y is est(y) &^ (h3(y-1) & h3(y) & h3(y+1)), as in
// Mask.Boundary, with every h3 taken from rows this pass has not yet
// modified: h3(y+1) is computed before row y is touched, and h3(y-1) is
// kept from before row y-1 was.
func (s *OfflineSegmenter) flipBoundary(est *imagex.Mask) {
	up, mid, down := s.h3a, s.h3b, s.h3c
	clear(up)
	h3Row(mid, est, 0)
	for y := 0; y < est.H; y++ {
		if y+1 < est.H {
			h3Row(down, est, y+1)
		} else {
			clear(down)
		}
		for j := range mid {
			b := est.Word(y, j) &^ (up[j] & mid[j] & down[j])
			var drop uint64
			for ; b != 0; b &= b - 1 {
				if s.rng.Float64() < s.Dither {
					drop |= 1 << uint(bits.TrailingZeros64(b))
				}
			}
			if drop != 0 {
				est.AndNotWord(y, j, drop)
			}
		}
		up, mid, down = mid, down, up
	}
}

// speckleRing sets each pixel of est's one-pixel outer ring with
// probability Dither/3. Ring row y is the radius-1 disc dilation
// prev(y-1) | est(y) | est(y)<<1 | est(y)>>1 | est(y+1), minus est(y)
// and clipped to the row width, where prev is row y-1 as it stood
// before this pass set bits in it.
func (s *OfflineSegmenter) speckleRing(est *imagex.Mask) {
	p := s.Dither / 3
	edge := ^uint64(0) >> uint((64-est.W&63)&63) // valid bits of a row's last word
	prev, cur := s.prev, s.cur
	clear(prev)
	last := len(cur) - 1
	for y := 0; y < est.H; y++ {
		for j := range cur {
			cur[j] = est.Word(y, j)
		}
		for j, c := range cur {
			var lo, hi, down uint64
			if j > 0 {
				lo = cur[j-1]
			}
			if j < last {
				hi = cur[j+1]
			}
			if y+1 < est.H {
				down = est.Word(y+1, j)
			}
			ring := (prev[j] | c<<1 | lo>>63 | c>>1 | hi<<63 | down) &^ c
			if j == last {
				ring &= edge
			}
			var add uint64
			for ; ring != 0; ring &= ring - 1 {
				if s.rng.Float64() < p {
					add |= 1 << uint(bits.TrailingZeros64(ring))
				}
			}
			if add != 0 {
				est.OrWord(y, j, add)
			}
		}
		prev, cur = cur, prev
	}
}

// h3Row writes h3 of row y of m into dst: row & row<<1 & row>>1, the
// pixels whose two horizontal neighbours are set and in bounds.
func h3Row(dst []uint64, m *imagex.Mask, y int) {
	var lo uint64
	mid := m.Word(y, 0)
	for j := range dst {
		var hi uint64
		if j+1 < len(dst) {
			hi = m.Word(y, j+1)
		}
		dst[j] = mid & (mid<<1 | lo>>63) & (mid>>1 | hi<<63)
		lo, mid = mid, hi
	}
}

// OracleSegmenter returns the true silhouette unchanged. Tests and
// ablation benchmarks use it to isolate other error sources.
type OracleSegmenter struct{}

var _ IntoSegmenter = OracleSegmenter{}

// Segment returns the oracle unchanged (or an empty mask when nil).
func (OracleSegmenter) Segment(frame *imagex.Image, oracle *imagex.Mask) *imagex.Mask {
	if oracle == nil {
		return imagex.NewMask(frame.W, frame.H)
	}
	return oracle.Clone()
}

// SegmentInto writes the oracle silhouette into dst, allocating only
// when dst is nil or mis-sized. A clone is still handed out — callers
// may edit the returned mask (the color refinement does), and the
// oracle belongs to the caller of Feed.
func (OracleSegmenter) SegmentInto(dst *imagex.Mask, frame *imagex.Image, oracle *imagex.Mask) *imagex.Mask {
	if dst == nil || dst.W != frame.W || dst.H != frame.H {
		dst = imagex.NewMask(frame.W, frame.H)
	}
	if oracle == nil || dst.CopyFrom(oracle) != nil {
		dst.Clear()
	}
	return dst
}

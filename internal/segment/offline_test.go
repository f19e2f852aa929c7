package segment

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"github.com/bgbuster/bgbuster/internal/imagex"
)

// referenceOfflineSegment is a frozen copy of the original per-pixel
// OfflineSegmenter.Segment: dilate by margin, flip each boundary pixel
// with probability dither, then set each pixel of the one-pixel outer
// ring with probability dither/3, all in ascending pixel order. The
// word-level implementation must match it mask for mask and draw for
// draw.
func referenceOfflineSegment(margin int, dither float64, rng *rand.Rand, frame *imagex.Image, oracle *imagex.Mask) *imagex.Mask {
	if oracle == nil {
		return imagex.NewMask(frame.W, frame.H)
	}
	est := oracle.Dilate(margin)
	if dither > 0 {
		for _, i := range setIndices(est.Boundary()) {
			if rng.Float64() < dither {
				est.SetI(i, false)
			}
		}
		outer := est.Dilate(1)
		for _, i := range setIndices(outer) {
			if !est.GetI(i) && rng.Float64() < dither/3 {
				est.SetI(i, true)
			}
		}
	}
	return est
}

// segmentIntoOrSegment calls SegmentInto when seg implements it and
// falls back to Segment otherwise.
func segmentIntoOrSegment(seg Segmenter, dst *imagex.Mask, frame *imagex.Image, oracle *imagex.Mask) *imagex.Mask {
	if is, ok := seg.(IntoSegmenter); ok {
		return is.SegmentInto(dst, frame, oracle)
	}
	return seg.Segment(frame, oracle)
}

// randomOracle draws a silhouette-like mask: a union of ellipses that
// may touch or cross every border, solid bands that exercise the
// dilator's full-row path, and isolated specks.
func randomOracle(w, h int, r *rand.Rand) *imagex.Mask {
	m := imagex.NewMask(w, h)
	for k := r.Intn(4); k >= 0; k-- {
		cx, cy := r.Intn(w+8)-4, r.Intn(h+8)-4
		rx, ry := 1+r.Intn(w/2+2), 1+r.Intn(h/2+2)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				dx, dy := float64(x-cx)/float64(rx), float64(y-cy)/float64(ry)
				if dx*dx+dy*dy <= 1 {
					m.Set(x, y, true)
				}
			}
		}
	}
	if r.Intn(4) == 0 {
		y0 := r.Intn(h)
		for y := y0; y < y0+1+r.Intn(3) && y < h; y++ {
			m.SetSpan(y, 0, w)
		}
	}
	for k := r.Intn(w*h/50 + 2); k > 0; k-- {
		m.Set(r.Intn(w), r.Intn(h), true)
	}
	return m
}

// TestOfflineSegmenterMatchesReference compares the segmenter with the
// frozen reference over seeded silhouettes at word-edge widths, every
// margin up to 3 and three dither levels. Segment and SegmentInto (with
// a reused destination) alternate; after each case the two rngs must
// agree on the next draw, proving both consumed the same number.
func TestOfflineSegmenterMatchesReference(t *testing.T) {
	const frames = 20
	for _, w := range []int{1, 63, 64, 65, 130, 160, 320} {
		h := 24
		if w >= 130 {
			h = 40
		}
		for margin := 0; margin <= 3; margin++ {
			for _, dither := range []float64{0, 0.05, 0.5} {
				name := fmt.Sprintf("w%d/m%d/d%g", w, margin, dither)
				seed := int64(w*100 + margin*10 + int(dither*100))
				refRng := rand.New(rand.NewSource(seed))
				seg := &OfflineSegmenter{Margin: margin, Dither: dither, rng: rand.New(rand.NewSource(seed))}
				shapes := rand.New(rand.NewSource(seed + 1))
				frame := imagex.New(w, h)
				var dst *imagex.Mask
				for f := 0; f < frames; f++ {
					oracle := randomOracle(w, h, shapes)
					want := referenceOfflineSegment(margin, dither, refRng, frame, oracle)
					var got *imagex.Mask
					if f%2 == 0 {
						got = seg.Segment(frame, oracle)
					} else {
						dst = segmentIntoOrSegment(seg, dst, frame, oracle)
						got = dst
					}
					if !got.Equal(want) {
						t.Fatalf("%s frame %d: mask differs from the reference (%d vs %d bits)", name, f, got.Count(), want.Count())
					}
				}
				if a, b := seg.rng.Int63(), refRng.Int63(); a != b {
					t.Fatalf("%s: rng out of step after %d frames: next draw %d, reference %d", name, frames, a, b)
				}
			}
		}
	}
}

// callerSilhouette is a deterministic caller-like shape at time step
// n: a head over shoulders and a torso, with one arm swinging.
func callerSilhouette(w, h, n int) *imagex.Mask {
	m := imagex.NewMask(w, h)
	cx := w/2 + (n%10 - 5)
	headY, headR := h/3, h/8
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			dx, dy := x-cx, y-headY
			in := dx*dx+dy*dy <= headR*headR
			if y > headY+headR/2 {
				half := w/8 + (y-headY)/3
				in = in || (x > cx-half && x < cx+half)
			}
			armX := cx + w/6 + (n%7)*3
			if y > h/2-(n%5)*4 && x >= armX && x < armX+w/32 {
				in = true
			}
			if in {
				m.Set(x, y, true)
			}
		}
	}
	return m
}

// TestOfflineSegmenterGolden pins the default segmenter's output bits
// and draw count over a 30-frame 320x240 call, so neither the
// implementation nor the reference copy above can drift unnoticed.
func TestOfflineSegmenterGolden(t *testing.T) {
	const golden = uint64(0xab62f8c5815db120)
	seg := NewOfflineSegmenter(rand.New(rand.NewSource(7)))
	frame := imagex.New(320, 240)
	h := fnv.New64a()
	var dst *imagex.Mask
	var buf []byte
	for n := 0; n < 30; n++ {
		var m *imagex.Mask
		if n%3 == 0 {
			m = seg.Segment(frame, callerSilhouette(320, 240, n))
		} else {
			dst = segmentIntoOrSegment(seg, dst, frame, callerSilhouette(320, 240, n))
			m = dst
		}
		buf = m.AppendWords(buf[:0])
		h.Write(buf)
	}
	next := seg.rng.Int63()
	h.Write([]byte(fmt.Sprint(next)))
	if got := h.Sum64(); got != golden {
		t.Fatalf("offline segmenter digest %#x, want %#x", got, golden)
	}
}

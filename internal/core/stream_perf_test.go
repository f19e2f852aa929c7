package core

import (
	"math/rand"
	"testing"

	"github.com/bgbuster/bgbuster/internal/compositor"
	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/segment"
)

// TestStreamFeedSteadyStateZeroAlloc is the hard density guarantee of
// DESIGN.md §14: with a cooperating (IntoSegmenter) segmenter, a
// streaming frame at steady state allocates nothing — the whole
// per-frame pipeline runs in stream-owned buffers. The offline cases
// cover the production profile: a seeded OfflineSegmenter writing into
// the stream's VCM scratch. CI runs this test as the regression gate
// next to the -benchmem numbers.
func TestStreamFeedSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation exactness is gated in the non-race run")
	}
	res, sils := testCall(t, 41, 30, compositor.StaticImage{Img: beach()}, compositor.ProfileZoom())
	frames := res.Blended.Frames

	cases := []struct {
		name    string
		unknown bool
		offline bool
	}{
		{"known", false, false},
		{"unknown", true, false},
		{"offline/known", false, true},
		{"offline/unknown", true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := oracleOpts()
			if tc.offline {
				opts.Segmenter = segment.NewOfflineSegmenter(rand.New(rand.NewSource(43)))
			}
			if tc.unknown {
				opts.Mode = VBUnknownImage
			} else {
				opts.KnownImages = compositor.BuiltinImages(160, 120)
			}
			s, err := NewStream(160, 120, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Warm-up: past identification, scratch built, histogram
			// allocated.
			for i, f := range frames {
				if err := s.Feed(f, sils[i]); err != nil {
					t.Fatal(err)
				}
			}
			i := 0
			allocs := testing.AllocsPerRun(64, func() {
				if err := s.Feed(frames[i%len(frames)], sils[i%len(frames)]); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if allocs != 0 {
				t.Fatalf("steady-state Feed allocates %.1f objects/frame, want 0", allocs)
			}
		})
	}
}

// refDerivation is the pre-optimization per-pixel derivation algorithm,
// kept verbatim as the differential reference for the word-packed
// rewrite: unbounded int run counters, per-pixel mask reads and writes,
// full-mask coverage recount.
type refDerivation struct {
	img    *imagex.Image
	known  *imagex.Mask
	local  *imagex.Mask
	runLen []int
	prev   *imagex.Image
}

func newRefDerivation(w, h int) *refDerivation {
	r := &refDerivation{
		img:    imagex.New(w, h),
		known:  imagex.NewMask(w, h),
		local:  imagex.NewMask(w, h),
		runLen: make([]int, w*h),
	}
	for i := range r.runLen {
		r.runLen[i] = 1
	}
	return r
}

func (r *refDerivation) update(frame *imagex.Image, tol, thr int) {
	if r.prev == nil {
		r.prev = frame.Clone()
		return
	}
	w := frame.W
	for i, p := range frame.Pix {
		if imagex.WithinTol(r.prev.Pix[i], p, tol) {
			r.runLen[i]++
			if r.runLen[i] >= thr && !r.local.At(i%w, i/w) {
				r.img.Pix[i] = p
				r.known.SetI(i, true)
				r.local.SetI(i, true)
			}
		} else {
			r.runLen[i] = 1
		}
	}
	r.prev = frame.Clone()
}

// TestStreamDerivationMatchesReference feeds the same call through the
// word-packed streaming derivation and the per-pixel reference
// implementation and requires identical derivation state, pixel for
// pixel and counter for counter.
func TestStreamDerivationMatchesReference(t *testing.T) {
	res, sils := testCall(t, 44, 24, compositor.StaticImage{Img: beach()}, compositor.ProfileZoom())
	opts := oracleOpts()
	opts.Mode = VBUnknownImage
	s, err := NewStream(160, 120, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefDerivation(160, 120)
	for i, f := range res.Blended.Frames {
		if err := s.Feed(f, sils[i]); err != nil {
			t.Fatal(err)
		}
		ref.update(f, s.opts.MatchTol, s.opts.StabilityThreshold)
	}
	d := s.Derived()
	if !d.Known.Equal(ref.known) {
		t.Fatal("derived Known mask diverged from the per-pixel reference")
	}
	if !s.localKnown.Equal(ref.local) {
		t.Fatal("localKnown mask diverged from the per-pixel reference")
	}
	if !d.Img.Equal(ref.img) {
		t.Fatal("derived image diverged from the per-pixel reference")
	}
	for i, r := range ref.runLen {
		got := int(s.runLen[i])
		if r > maxRunLen {
			r = maxRunLen // the only sanctioned divergence: saturation
		}
		if got != r {
			t.Fatalf("runLen[%d] = %d, reference %d", i, got, r)
		}
	}
	if want := float64(ref.known.Count()) / float64(160*120); s.rec.DerivedCoverage != want {
		t.Fatalf("DerivedCoverage = %v, want %v", s.rec.DerivedCoverage, want)
	}
}

package core

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/bgbuster/bgbuster/internal/compositor"
	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/person"
	"github.com/bgbuster/bgbuster/internal/scene"
	"github.com/bgbuster/bgbuster/internal/segment"
	"github.com/bgbuster/bgbuster/internal/vidstream"
)

// testCall renders a synthetic call and composes it with the given
// virtual source and profile. Returns the composition result and the
// true silhouettes.
func testCall(t *testing.T, seed int64, frames int, virtual compositor.VirtualSource, profile compositor.Profile) (*compositor.Result, []*imagex.Mask) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sc := scene.Generate(scene.DefaultConfig(), rng)
	p := person.New(person.Config{Action: person.ActionArmWave}, rng)

	raw := vidstream.New(30)
	var sils []*imagex.Mask
	dur := float64(frames) / 30
	for i := 0; i < frames; i++ {
		f := sc.Lit(1.0)
		m := p.Render(f, float64(i)/30, dur)
		if err := raw.Append(f); err != nil {
			t.Fatal(err)
		}
		sils = append(sils, m)
	}
	res, err := compositor.Compose(raw, sils, compositor.Options{Profile: profile, Virtual: virtual}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return res, sils
}

func beach() *imagex.Image { return compositor.BuiltinImage("beach", 160, 120) }

func TestIdentifyKnownImageFindsGroundTruth(t *testing.T) {
	res, _ := testCall(t, 1, 15, compositor.StaticImage{Img: beach()}, compositor.ProfileZoom())
	name, img, err := IdentifyKnownImage(res.Blended, compositor.BuiltinImages(160, 120), 5)
	if err != nil {
		t.Fatal(err)
	}
	if name != "beach" {
		t.Fatalf("identified %q, want beach", name)
	}
	if img == nil {
		t.Fatal("nil image returned")
	}
}

func TestIdentifyKnownImageErrors(t *testing.T) {
	if _, _, err := IdentifyKnownImage(vidstream.New(30), nil, 0); !errors.Is(err, vidstream.ErrEmpty) {
		t.Fatalf("empty video error = %v", err)
	}
	res, _ := testCall(t, 2, 4, compositor.StaticImage{Img: beach()}, compositor.ProfileZoom())
	if _, _, err := IdentifyKnownImage(res.Blended, map[string]*imagex.Image{}, 0); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("no candidates error = %v", err)
	}
}

func TestIdentifyKnownVideoFindsGroundTruthAndPhase(t *testing.T) {
	loop := compositor.BuiltinVideo("waves", 160, 120, 12)
	res, _ := testCall(t, 3, 30, loop, compositor.ProfileZoom())

	cands := map[string][]*imagex.Image{
		"waves":  loop.Frames,
		"aurora": compositor.BuiltinVideo("aurora", 160, 120, 12).Frames,
	}
	name, frames, offset, err := IdentifyKnownVideo(res.Blended, cands, 8)
	if err != nil {
		t.Fatal(err)
	}
	if name != "waves" {
		t.Fatalf("identified %q, want waves", name)
	}
	if offset != 0 {
		t.Fatalf("phase offset = %d, want 0 (call starts at loop start)", offset)
	}
	if len(frames) != 12 {
		t.Fatalf("frame count = %d", len(frames))
	}
}

func TestIdentifyKnownVideoEmpty(t *testing.T) {
	res, _ := testCall(t, 4, 4, compositor.StaticImage{Img: beach()}, compositor.ProfileZoom())
	if _, _, _, err := IdentifyKnownVideo(res.Blended, nil, 0); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("error = %v", err)
	}
	empty := map[string][]*imagex.Image{"x": nil}
	if _, _, _, err := IdentifyKnownVideo(res.Blended, empty, 0); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("all-empty candidates error = %v", err)
	}
}

func TestDeriveUnknownImageRecoversVB(t *testing.T) {
	vb := beach()
	res, _ := testCall(t, 5, 40, compositor.StaticImage{Img: vb}, compositor.ProfileZoom())
	d, err := DeriveUnknownImage(res.Blended, DefaultStabilityThreshold, 10)
	if err != nil {
		t.Fatal(err)
	}
	if d.Coverage() < 0.5 {
		t.Fatalf("derivation coverage = %.2f, want ≥ 0.5", d.Coverage())
	}
	// Where derived AND truly VB in most frames, values must match the
	// real virtual image.
	match, checked := 0, 0
	for i := 0; i < d.Known.Len(); i++ {
		if d.Known.GetI(i) && res.Components[20].VB.GetI(i) {
			checked++
			if imagex.WithinTol(d.Img.Pix[i], vb.Pix[i], 10) {
				match++
			}
		}
	}
	if checked == 0 || float64(match)/float64(checked) < 0.95 {
		t.Fatalf("derived VB accuracy %d/%d", match, checked)
	}
}

func TestDeriveUnknownImageThresholdDefaults(t *testing.T) {
	v := vidstream.New(30)
	for i := 0; i < 12; i++ {
		if err := v.Append(imagex.NewFilled(4, 4, imagex.RGB{R: 9, G: 9, B: 9})); err != nil {
			t.Fatal(err)
		}
	}
	d, err := DeriveUnknownImage(v, 0, 0) // threshold defaults to 10
	if err != nil {
		t.Fatal(err)
	}
	if d.Coverage() != 1.0 {
		t.Fatalf("static video coverage = %v, want 1", d.Coverage())
	}
}

func TestMergeDerived(t *testing.T) {
	a := &DerivedImage{Img: imagex.New(2, 1), Known: imagex.NewMask(2, 1)}
	a.Img.Set(0, 0, imagex.RGB{R: 1})
	a.Known.Set(0, 0, true)
	b := &DerivedImage{Img: imagex.New(2, 1), Known: imagex.NewMask(2, 1)}
	b.Img.Set(0, 0, imagex.RGB{R: 99}) // conflicting: earlier wins
	b.Known.Set(0, 0, true)
	b.Img.Set(1, 0, imagex.RGB{R: 2})
	b.Known.Set(1, 0, true)

	m, err := MergeDerived(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Coverage() != 1.0 {
		t.Fatal("merge must fill coverage")
	}
	if m.Img.At(0, 0).R != 1 || m.Img.At(1, 0).R != 2 {
		t.Fatal("merge precedence wrong")
	}

	if _, err := MergeDerived(); !errors.Is(err, ErrNoCandidates) {
		t.Fatal("empty merge must error")
	}
	bad := &DerivedImage{Img: imagex.New(3, 3), Known: imagex.NewMask(3, 3)}
	if _, err := MergeDerived(a, bad); !errors.Is(err, imagex.ErrBounds) {
		t.Fatalf("geometry mismatch error = %v", err)
	}
}

func TestDeriveUnknownVideoFindsPeriod(t *testing.T) {
	loop := compositor.BuiltinVideo("waves", 160, 120, 8)
	res, _ := testCall(t, 6, 48, loop, compositor.ProfileZoom())
	dv, err := DeriveUnknownVideo(res.Blended, 16, 10)
	if err != nil {
		t.Fatal(err)
	}
	if dv.Period != 8 {
		t.Fatalf("period = %d, want 8", dv.Period)
	}
	if len(dv.Phases) != 8 {
		t.Fatalf("phases = %d", len(dv.Phases))
	}
}

func TestDeriveUnknownVideoTooShort(t *testing.T) {
	v := vidstream.New(30)
	for i := 0; i < 4; i++ {
		if err := v.Append(imagex.New(8, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := DeriveUnknownVideo(v, 40, 0); err == nil {
		t.Fatal("4-frame call must be too short for loop detection")
	}
}

func TestVBMaskKnown(t *testing.T) {
	f := imagex.NewFilled(3, 1, imagex.RGB{R: 10, G: 10, B: 10})
	f.Set(2, 0, imagex.RGB{R: 200, G: 0, B: 0})
	vb := imagex.NewFilled(3, 1, imagex.RGB{R: 12, G: 9, B: 10})
	m := vbMaskInto(nil, f, vb, nil, 5)
	if !m.At(0, 0) || !m.At(1, 0) || m.At(2, 0) {
		t.Fatal("VBM wrong")
	}
	if vbMaskInto(nil, f, imagex.New(9, 9), nil, 5).Count() != 0 {
		t.Fatal("geometry mismatch must give empty mask")
	}
}

func TestVBMaskDerived(t *testing.T) {
	f := imagex.NewFilled(2, 1, imagex.RGB{R: 10, G: 10, B: 10})
	d := &DerivedImage{Img: f.Clone(), Known: imagex.NewMask(2, 1)}
	d.Known.Set(0, 0, true)
	m := vbMaskInto(nil, f, d.Img, d.Known, 0)
	if !m.At(0, 0) || m.At(1, 0) {
		t.Fatal("derived VBM must respect Known")
	}
}

func oracleOpts() Options {
	o := DefaultOptions()
	o.Segmenter = segment.OracleSegmenter{}
	return o
}

func TestReconstructKnownImagePrecision(t *testing.T) {
	res, sils := testCall(t, 7, 30, compositor.StaticImage{Img: beach()}, compositor.ProfileZoom())
	opts := oracleOpts()
	opts.KnownImages = compositor.BuiltinImages(160, 120)
	rec, err := Reconstruct(res.Blended, sils, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rec.VBName != "beach" {
		t.Fatalf("VB identified as %q", rec.VBName)
	}
	if rec.RBRR() <= 0 {
		t.Fatal("no background recovered from a Zoom call")
	}
	// Precision: recovered pixels must match the raw scene pixels.
	good, total := 0, 0
	rec.Coverage.ForEachSet(func(i int) {
		total++
		if imagex.WithinTol(rec.Recovered.Pix[i], res.Raw.Frames[len(res.Raw.Frames)-1].Pix[i], 30) {
			good++
		}
	})
	if total == 0 || float64(good)/float64(total) < 0.6 {
		t.Fatalf("reconstruction precision %d/%d too low", good, total)
	}
}

func TestReconstructUnknownImageMode(t *testing.T) {
	res, sils := testCall(t, 8, 40, compositor.StaticImage{Img: beach()}, compositor.ProfileZoom())
	opts := oracleOpts()
	opts.Mode = VBUnknownImage
	rec, err := Reconstruct(res.Blended, sils, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rec.DerivedCoverage < 0.5 {
		t.Fatalf("derived coverage = %v", rec.DerivedCoverage)
	}
	if rec.RBRR() <= 0 {
		t.Fatal("unknown-image mode recovered nothing")
	}
}

func TestReconstructKnownVideoMode(t *testing.T) {
	loop := compositor.BuiltinVideo("waves", 160, 120, 10)
	res, sils := testCall(t, 9, 30, loop, compositor.ProfileZoom())
	opts := oracleOpts()
	opts.Mode = VBKnownVideo
	opts.KnownVideos = map[string][]*imagex.Image{
		"waves":  loop.Frames,
		"aurora": compositor.BuiltinVideo("aurora", 160, 120, 10).Frames,
	}
	rec, err := Reconstruct(res.Blended, sils, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rec.VBName != "waves" {
		t.Fatalf("VB video identified as %q", rec.VBName)
	}
	if rec.RBRR() <= 0 {
		t.Fatal("known-video mode recovered nothing")
	}
}

func TestReconstructUnknownVideoMode(t *testing.T) {
	loop := compositor.BuiltinVideo("waves", 160, 120, 8)
	res, sils := testCall(t, 10, 48, loop, compositor.ProfileZoom())
	opts := oracleOpts()
	opts.Mode = VBUnknownVideo
	opts.MaxLoopPeriod = 16
	rec, err := Reconstruct(res.Blended, sils, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rec.RBRR() <= 0 {
		t.Fatal("unknown-video mode recovered nothing")
	}
}

func TestReconstructValidation(t *testing.T) {
	res, sils := testCall(t, 11, 5, compositor.StaticImage{Img: beach()}, compositor.ProfileZoom())
	opts := oracleOpts()
	opts.KnownImages = compositor.BuiltinImages(160, 120)

	bad := opts
	bad.Segmenter = nil
	if _, err := Reconstruct(res.Blended, sils, bad); err == nil {
		t.Fatal("nil segmenter accepted")
	}
	if _, err := Reconstruct(vidstream.New(30), nil, opts); err == nil {
		t.Fatal("empty video accepted")
	}
	if _, err := Reconstruct(res.Blended, sils[:2], opts); err == nil {
		t.Fatal("oracle count mismatch accepted")
	}
	badMode := opts
	badMode.Mode = VBMode(99)
	if _, err := Reconstruct(res.Blended, sils, badMode); err == nil {
		t.Fatal("bad mode accepted")
	}
}

// TestReconstructZeroOptionsUseDefaults pins the one defaulting rule:
// a call whose tunables are all zero must reconstruct exactly what the
// DefaultOptions values give. Batch used to default only Phi and the
// colour threshold, so a zero MaxLoopPeriod searched period 2 alone and
// a zero MatchTol matched exactly.
func TestReconstructZeroOptionsUseDefaults(t *testing.T) {
	loop := compositor.BuiltinVideo("waves", 160, 120, 8)
	res, sils := testCall(t, 10, 48, loop, compositor.ProfileZoom())
	def := oracleOpts()
	def.Mode = VBUnknownVideo
	zero := Options{Mode: VBUnknownVideo, Segmenter: def.Segmenter, ColorRefine: def.ColorRefine}

	want, err := Reconstruct(res.Blended, sils, def)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Reconstruct(res.Blended, sils, zero)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Coverage.Equal(want.Coverage) || !got.Recovered.Equal(want.Recovered) ||
		got.DerivedCoverage != want.DerivedCoverage || got.LBBits != want.LBBits {
		t.Fatalf("zero-field options: RBRR %.3f, derived %.4f; DefaultOptions: RBRR %.3f, derived %.4f",
			got.RBRR(), got.DerivedCoverage, want.RBRR(), want.DerivedCoverage)
	}
}

// TestReconstructAllocsPerFrame gates the batch path's per-frame
// allocations: beyond the segmenter's own Segment call a frame allocates
// nothing, because its LB overwrites its VCM and the worker's kernel
// owns the VBM/BBM scratch. The slope between two call lengths cancels
// the per-call costs (identification, planes, kernels).
func TestReconstructAllocsPerFrame(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; allocation exactness is gated in the non-race run")
	}
	res, sils := testCall(t, 12, 24, compositor.StaticImage{Img: beach()}, compositor.ProfileZoom())
	opts := oracleOpts()
	opts.KnownImages = compositor.BuiltinImages(160, 120)
	opts.Workers = 1
	allocs := func(n int) float64 {
		v := vidstream.New(30)
		for _, f := range res.Blended.Frames[:n] {
			if err := v.Append(f); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(4, func() {
			if _, err := Reconstruct(v, sils[:n], opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	seg := testing.AllocsPerRun(4, func() { opts.Segmenter.Segment(res.Blended.Frames[0], sils[0]) })
	a12, a24 := allocs(12), allocs(24)
	if slope := (a24 - a12) / 12; slope > seg {
		t.Fatalf("Reconstruct allocates %.2f objects/frame (%.0f at 12 frames, %.0f at 24), want at most the segmenter's %.0f",
			slope, a12, a24, seg)
	}
}

// badSegmenter returns a caller mask of the wrong geometry.
type badSegmenter struct{}

func (badSegmenter) Segment(*imagex.Image, *imagex.Mask) *imagex.Mask { return imagex.NewMask(3, 3) }

// TestMisSizedVCM pins what each path does with a segmenter output
// that cannot hold the frame's LB: batch rejects it at its frame index,
// and the stream treats it as an empty VCM, so its LB is the BBM
// complement (the oracle segmenter with an empty oracle gives the same).
func TestMisSizedVCM(t *testing.T) {
	res, sils := testCall(t, 13, 12, compositor.StaticImage{Img: beach()}, compositor.ProfileZoom())
	opts := oracleOpts()
	opts.KnownImages = compositor.BuiltinImages(160, 120)
	opts.ColorRefine = false
	bad := opts
	bad.Segmenter = badSegmenter{}
	if _, err := Reconstruct(res.Blended, sils, bad); !errors.Is(err, imagex.ErrBounds) {
		t.Fatalf("batch with a mis-sized VCM: err = %v, want ErrBounds", err)
	}

	s, err := NewStream(160, 120, bad)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewStream(160, 120, opts)
	if err != nil {
		t.Fatal(err)
	}
	empty := imagex.NewMask(160, 120)
	for _, f := range res.Blended.Frames {
		if err := s.Feed(f, empty); err != nil {
			t.Fatal(err)
		}
		if err := ref.Feed(f, empty); err != nil {
			t.Fatal(err)
		}
	}
	got, want := s.Snapshot(), ref.Snapshot()
	if got.LBBits == 0 || got.LBBits != want.LBBits || !got.Coverage.Equal(want.Coverage) {
		t.Fatalf("stream with a mis-sized VCM: %d LB bits, want %d from an empty VCM", got.LBBits, want.LBBits)
	}
}

func TestVBModeStrings(t *testing.T) {
	for _, m := range []VBMode{VBKnownImage, VBKnownVideo, VBUnknownImage, VBUnknownVideo} {
		if m.String() == "" || m.String() == "vbmode(0)" {
			t.Fatal("mode label missing")
		}
	}
	if VBMode(42).String() != "vbmode(42)" {
		t.Fatal("unknown mode label wrong")
	}
}

func TestColorRefineRecoversSwallowedLeaks(t *testing.T) {
	// Build VCMs that swallow a distinct-colored leak pixel; refinement
	// must expel it.
	v := vidstream.New(30)
	vcms := make([]*imagex.Mask, 0, 20)
	for i := 0; i < 20; i++ {
		f := imagex.NewFilled(10, 10, imagex.RGB{R: 40, G: 80, B: 160}) // shirt
		f.Set(0, 0, imagex.RGB{R: 250, G: 10, B: 10})                   // rare leaked color
		if err := v.Append(f); err != nil {
			t.Fatal(err)
		}
		vcms = append(vcms, imagex.NewFullMask(10, 10))
	}
	refineVCMsByColor(v, vcms, 0.02, 1)
	if vcms[5].At(0, 0) {
		t.Fatal("rare color must be expelled from VCM")
	}
	if !vcms[5].At(5, 5) {
		t.Fatal("dominant color must stay in VCM")
	}
}

func TestColorRefineEmptyVCMs(t *testing.T) {
	v := vidstream.New(30)
	if err := v.Append(imagex.New(4, 4)); err != nil {
		t.Fatal(err)
	}
	vcms := []*imagex.Mask{imagex.NewMask(4, 4)}
	refineVCMsByColor(v, vcms, 0.01, 1) // must not divide by zero
}

func TestEstimatePhiRecoversBlendRadius(t *testing.T) {
	// Static scene (no person): the band between raw and VB is exactly
	// the blend ring around leak blobs… with no silhouette there are no
	// blobs, so use a static person instead.
	rng := rand.New(rand.NewSource(12))
	sc := scene.Generate(scene.DefaultConfig(), rng)
	p := person.New(person.Config{}, rng) // neutral, static

	raw := vidstream.New(30)
	var sils []*imagex.Mask
	f := sc.Lit(1.0)
	sil := p.Render(f, 0, 1)
	if err := raw.Append(f); err != nil {
		t.Fatal(err)
	}
	sils = append(sils, sil)

	profile := compositor.ProfileZoom()
	profile.Matting.WarmupPatches = 0
	profile.Matting.LeakRate = 0
	profile.Matting.CutRate = 0
	vb := beach()
	res, err := compositor.Compose(raw, sils, compositor.Options{Profile: profile, Virtual: compositor.StaticImage{Img: vb}}, rng)
	if err != nil {
		t.Fatal(err)
	}
	phi, err := EstimatePhi(res.Blended.Frames[0], res.Raw.Frames[0], vb, 8)
	if err != nil {
		t.Fatal(err)
	}
	if phi < profile.BlendRadius-1 || phi > profile.BlendRadius+2 {
		t.Fatalf("estimated phi = %d, true radius = %d", phi, profile.BlendRadius)
	}
}

func TestEstimatePhiErrors(t *testing.T) {
	if _, err := EstimatePhi(imagex.New(2, 2), imagex.New(3, 3), imagex.New(2, 2), 0); !errors.Is(err, imagex.ErrBounds) {
		t.Fatalf("geometry error = %v", err)
	}
	// Identical images: no band.
	a := imagex.NewFilled(4, 4, imagex.RGB{R: 5})
	phi, err := EstimatePhi(a, a, a, 0)
	if err != nil || phi != 0 {
		t.Fatalf("no-band phi = %d, %v", phi, err)
	}
}

func TestReconstructSoundnessWithPerfectCompositor(t *testing.T) {
	// Property: if the compositor makes no matting errors, nothing leaks,
	// and the framework (with an oracle segmenter and the true VB) must
	// claim nothing — no false residue.
	profile := compositor.ProfileZoom()
	profile.Matting.LeakRate = 0
	profile.Matting.CutRate = 0
	profile.Matting.WarmupPatches = 0
	profile.Matting.TrailKeep = 0
	profile.Matting.MotionGain = 0
	profile.Matting.MotionOverDrop = 0

	res, sils := testCall(t, 20, 15, compositor.StaticImage{Img: beach()}, profile)
	opts := oracleOpts()
	opts.KnownImages = compositor.BuiltinImages(160, 120)
	rec, err := Reconstruct(res.Blended, sils, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.RBRR(); got > 0.5 {
		t.Fatalf("perfect compositor still yielded %.2f%% claimed leak", got)
	}
}

func TestReconstructClaimsAreMostlyTrueLeaks(t *testing.T) {
	// Property: with an oracle segmenter, claimed pixels must be
	// dominated by pixels the compositor genuinely leaked at least once.
	res, sils := testCall(t, 21, 25, compositor.StaticImage{Img: beach()}, compositor.ProfileZoom())
	opts := oracleOpts()
	opts.KnownImages = compositor.BuiltinImages(160, 120)
	rec, err := Reconstruct(res.Blended, sils, opts)
	if err != nil {
		t.Fatal(err)
	}
	trueLeak := imagex.NewMask(160, 120)
	for _, c := range res.Components {
		if err := trueLeak.Union(c.LB); err != nil {
			t.Fatal(err)
		}
	}
	claimed := rec.Coverage.Count()
	if claimed == 0 {
		t.Fatal("nothing claimed")
	}
	overlap := rec.Coverage.Overlap(trueLeak)
	if frac := float64(overlap) / float64(claimed); frac < 0.55 {
		t.Fatalf("only %.0f%% of claims were genuine leaks", frac*100)
	}
}

// TestColorRefineKernelsMatchNaive pins the word-level refinement
// kernels to the per-pixel definition at every row-tail length of one-
// and two-word rows and at 130, 160 and 320. histQuant12 bumps exactly
// the VCM pixels' bins. Its candidate mask is, pixel for pixel in
// raster order, the VCM pixels whose count right after their own
// increment is at most the cut; so it lies inside the VCM and holds
// every pixel whose final count is at most the cut. The cut equals a
// present bin's final count, which tests the tie. dropRareColors then
// clears exactly the pixels whose final count is at most the cut,
// re-checking either the candidates or the whole VCM.
//
// The batch contract follows: a call's frames split over k = 1, 2, 3
// partial histograms in shuffled orders. The flags, taken against
// partial counts, must still hold every pixel whose merged count is at
// most the cut (again a tie) and lie inside the VCM, and the re-check
// against the merged histogram must drop exactly those pixels.
func TestColorRefineKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	palette := []imagex.RGB{{R: 10, G: 200, B: 30}, {R: 250, G: 250, B: 250}, {R: 128, G: 64, B: 0}, {R: 17, G: 18, B: 19}}
	var widths []int
	for w := 1; w <= 128; w++ {
		widths = append(widths, w)
	}
	widths = append(widths, 130, 160, 320)
	for _, w := range widths {
		const h = 9
		frame := imagex.New(w, h)
		for i := range frame.Pix {
			frame.Pix[i] = palette[rng.Intn(len(palette))]
			if rng.Intn(5) == 0 {
				frame.Pix[i] = imagex.RGB{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256))}
			}
		}
		vcm := imagex.NewMask(w, h)
		vcm.SetSpan(0, 0, w) // at least one whole row, i.e. full words
		for i := w; i < w*h; i++ {
			// Row 1 stays empty: its candidate words must still be cleared.
			if i >= 2*w && rng.Intn(3) != 0 {
				vcm.SetI(i, true)
			}
		}
		start := make([]int, 4096)
		for b := range start {
			start[b] = rng.Intn(3)
		}
		want := append([]int(nil), start...)
		vcm.ForEachSet(func(p int) { want[quant12(frame.Pix[p])]++ })
		cut := want[quant12(palette[0])]
		wantCand := imagex.NewMask(w, h)
		seen := append([]int(nil), start...)
		vcm.ForEachSet(func(p int) {
			q := quant12(frame.Pix[p])
			if seen[q]++; seen[q] <= cut {
				wantCand.SetI(p, true)
			}
		})
		kept := imagex.NewMask(w, h)
		vcm.ForEachSet(func(p int) {
			if want[quant12(frame.Pix[p])] > cut {
				kept.SetI(p, true)
			}
		})

		hist := append([]int(nil), start...)
		cand := imagex.NewFullMask(w, h) // stale scratch: every word must be overwritten
		histQuant12(hist, frame, vcm, cand, cut)
		for b := range want {
			if hist[b] != want[b] {
				t.Fatalf("w=%d: bin %d = %d, want %d", w, b, hist[b], want[b])
			}
		}
		if !cand.Equal(wantCand) {
			t.Fatalf("w=%d: %d candidates, want %d", w, cand.Count(), wantCand.Count())
		}
		if outside := cand.Count() - cand.Overlap(vcm); outside != 0 {
			t.Fatalf("w=%d: %d candidates outside the VCM", w, outside)
		}
		drops := vcm.Clone()
		_ = drops.Subtract(kept) // same geometry
		if missed := drops.Count() - drops.Overlap(cand); missed != 0 {
			t.Fatalf("w=%d: %d pixels with a final count <= cut are not candidates", w, missed)
		}

		batch := vcm.Clone()
		dropRareColors(batch, frame, hist, cut, batch)
		if !batch.Equal(kept) {
			t.Fatalf("w=%d: dropRareColors over the VCM kept %d pixels, want %d", w, batch.Count(), kept.Count())
		}
		dropRareColors(vcm, frame, hist, cut, cand)
		if !vcm.Equal(kept) {
			t.Fatalf("w=%d: dropRareColors over the candidates kept %d pixels, want %d", w, vcm.Count(), kept.Count())
		}
	}

	for _, w := range []int{1, 63, 64, 65, 130, 320} {
		const h, nf = 5, 7
		frames := make([]*imagex.Image, nf)
		vcms := make([]*imagex.Mask, nf)
		merged := make([]int, 4096)
		for i := range frames {
			frames[i] = imagex.New(w, h)
			for p := range frames[i].Pix {
				frames[i].Pix[p] = palette[rng.Intn(len(palette))]
				if rng.Intn(5) == 0 {
					frames[i].Pix[p] = imagex.RGB{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256))}
				}
			}
			vcms[i] = imagex.NewMask(w, h)
			for p := 0; p < w*h; p++ {
				if rng.Intn(4) != 0 {
					vcms[i].SetI(p, true)
				}
			}
			vcms[i].ForEachSet(func(p int) { merged[quant12(frames[i].Pix[p])]++ })
		}
		cut := merged[quant12(palette[1])]
		if cut == 0 {
			t.Fatalf("w=%d: the tie bin is empty", w)
		}
		for k := 1; k <= 3; k++ {
			for trial := 0; trial < 3; trial++ {
				parts := make([][]int, k)
				for j := range parts {
					parts[j] = make([]int, 4096)
				}
				cands := imagex.NewMasks(w, h, nf)
				for _, i := range rng.Perm(nf) {
					cands[i].Invert() // stale scratch: every word must be overwritten
					histQuant12(parts[rng.Intn(k)], frames[i], vcms[i], &cands[i], cut)
				}
				for b := range merged {
					sum := 0
					for _, part := range parts {
						sum += part[b]
					}
					if sum != merged[b] {
						t.Fatalf("w=%d k=%d: bin %d sums to %d over the partial histograms, want %d", w, k, b, sum, merged[b])
					}
				}
				for i, vcm := range vcms {
					cand := &cands[i]
					if outside := cand.Count() - cand.Overlap(vcm); outside != 0 {
						t.Fatalf("w=%d k=%d frame %d: %d candidates outside the VCM", w, k, i, outside)
					}
					kept := imagex.NewMask(w, h)
					vcm.ForEachSet(func(p int) {
						q := merged[quant12(frames[i].Pix[p])]
						if q > cut {
							kept.SetI(p, true)
						} else if !cand.GetI(p) {
							t.Fatalf("w=%d k=%d frame %d: pixel %d has merged count %d <= cut %d but is not a candidate",
								w, k, i, p, q, cut)
						}
					})
					got := vcm.Clone()
					dropRareColors(got, frames[i], merged, cut, cand)
					if !got.Equal(kept) {
						t.Fatalf("w=%d k=%d frame %d: re-check kept %d pixels, want %d", w, k, i, got.Count(), kept.Count())
					}
				}
			}
		}
	}
}

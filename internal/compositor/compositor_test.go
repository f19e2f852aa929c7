package compositor

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/person"
	"github.com/bgbuster/bgbuster/internal/scene"
	"github.com/bgbuster/bgbuster/internal/vidstream"
)

// composeTestCall renders a short synthetic call and composes it.
func composeTestCall(t *testing.T, seed int64, frames int, profile Profile) *Result {
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
	vb := StaticImage{Img: BuiltinImage("beach", 160, 120)}
	res, err := Compose(raw, sils, Options{Profile: profile, Virtual: vb}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestComposeComponentPartition(t *testing.T) {
	res := composeTestCall(t, 1, 12, ProfileZoom())
	for i, c := range res.Components {
		total := c.VC.Count() + c.LB.Count() + c.BB.Count() + c.VB.Count()
		w, h := res.Blended.Size()
		if total != w*h {
			t.Fatalf("frame %d: components cover %d of %d pixels", i, total, w*h)
		}
		// Pairwise disjoint (paper: four non-overlapping components).
		pairs := [][2]*imagex.Mask{
			{c.VC, c.LB}, {c.VC, c.BB}, {c.VC, c.VB},
			{c.LB, c.BB}, {c.LB, c.VB}, {c.BB, c.VB},
		}
		for pi, p := range pairs {
			if p[0].Overlap(p[1]) != 0 {
				t.Fatalf("frame %d: component pair %d overlaps", i, pi)
			}
		}
	}
}

func TestComposePixelSemantics(t *testing.T) {
	res := composeTestCall(t, 2, 8, ProfileZoom())
	vb := BuiltinImage("beach", 160, 120)
	for i, c := range res.Components {
		blended := res.Blended.Frames[i]
		raw := res.Raw.Frames[i]
		for p := 0; p < len(blended.Pix); p++ {
			switch {
			case c.VC.GetI(p) || c.LB.GetI(p):
				if blended.Pix[p] != raw.Pix[p] {
					t.Fatalf("frame %d: fg/leak pixel %d not raw", i, p)
				}
			case c.VB.GetI(p):
				if blended.Pix[p] != vb.Pix[p] {
					t.Fatalf("frame %d: vb pixel %d not virtual image", i, p)
				}
			}
		}
	}
}

func TestComposeLeaksSomething(t *testing.T) {
	res := composeTestCall(t, 3, 20, ProfileZoom())
	leak := 0
	for _, c := range res.Components {
		leak += c.LB.Count()
	}
	if leak == 0 {
		t.Fatal("Zoom profile never leaked any background in 20 frames")
	}
}

func TestSkypeLeaksLessThanZoom(t *testing.T) {
	leak := func(p Profile) int {
		total := 0
		for seed := int64(0); seed < 6; seed++ {
			res := composeTestCall(t, seed, 25, p)
			for _, c := range res.Components {
				total += c.LB.Count()
			}
		}
		return total
	}
	z, s := leak(ProfileZoom()), leak(ProfileSkype())
	if s >= z {
		t.Fatalf("skype leak (%d) must be below zoom leak (%d)", s, z)
	}
}

func TestComposeValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	raw := vidstream.New(30)
	if err := raw.Append(imagex.New(20, 20)); err != nil {
		t.Fatal(err)
	}
	sil := imagex.NewMask(20, 20)
	vb := StaticImage{Img: imagex.New(20, 20)}

	if _, err := Compose(vidstream.New(30), nil, Options{Profile: ProfileZoom(), Virtual: vb}, rng); err == nil {
		t.Fatal("empty video accepted")
	}
	if _, err := Compose(raw, []*imagex.Mask{sil}, Options{Profile: ProfileZoom(), Virtual: vb}, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
	if _, err := Compose(raw, []*imagex.Mask{sil}, Options{Profile: ProfileZoom()}, rng); err == nil {
		t.Fatal("nil virtual source accepted")
	}
	if _, err := Compose(raw, nil, Options{Profile: ProfileZoom(), Virtual: vb}, rng); err == nil {
		t.Fatal("missing silhouettes accepted")
	}
	if _, err := Compose(raw, []*imagex.Mask{imagex.NewMask(9, 9)}, Options{Profile: ProfileZoom(), Virtual: vb}, rng); err == nil {
		t.Fatal("mismatched silhouette accepted")
	}
	bad := StaticImage{Img: imagex.New(5, 5)}
	if _, err := Compose(raw, []*imagex.Mask{sil}, Options{Profile: ProfileZoom(), Virtual: bad}, rng); err == nil {
		t.Fatal("mismatched virtual background accepted")
	}
}

func TestVirtualVideoLoops(t *testing.T) {
	vid := BuiltinVideo("waves", 20, 20, 5)
	if vid.Period() != 5 {
		t.Fatalf("period = %d", vid.Period())
	}
	if !vid.FrameAt(0).Equal(vid.FrameAt(5)) || !vid.FrameAt(2).Equal(vid.FrameAt(7)) {
		t.Fatal("video must loop with its period")
	}
	if vid.FrameAt(0).Equal(vid.FrameAt(2)) {
		t.Fatal("distinct phases must differ")
	}
}

func TestBuiltinImagesDistinct(t *testing.T) {
	imgs := BuiltinImages(40, 30)
	if len(imgs) != len(BuiltinImageNames) {
		t.Fatalf("expected %d images", len(BuiltinImageNames))
	}
	names := BuiltinImageNames
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			a, b := imgs[names[i]], imgs[names[j]]
			if a.MatchCount(b) > a.W*a.H/2 {
				t.Errorf("built-ins %q and %q too similar", names[i], names[j])
			}
		}
	}
	// Unknown name falls back without panicking.
	if BuiltinImage("nope", 40, 30) == nil {
		t.Fatal("fallback image nil")
	}
}

func TestBuiltinVideoMinPeriod(t *testing.T) {
	if BuiltinVideo("aurora", 10, 10, 0).Period() != 2 {
		t.Fatal("period must clamp to ≥ 2")
	}
}

func TestBlendWeightMonotone(t *testing.T) {
	for _, kind := range []BlendKind{BlendAlpha, BlendGaussian, BlendLaplacian} {
		prev := -1.0
		for d := 0.0; d <= 5; d++ {
			w := blendWeight(kind, d, 5)
			if w < prev {
				t.Fatalf("%v weight not monotone at d=%v", kind, d)
			}
			if w < 0 || w > 1 {
				t.Fatalf("%v weight out of range at d=%v: %v", kind, d, w)
			}
			prev = w
		}
		if w0 := blendWeight(kind, 0, 5); w0 > 0.05 {
			t.Fatalf("%v weight at edge = %v, want ≈0", kind, w0)
		}
	}
}

func TestBlendKindStrings(t *testing.T) {
	for _, k := range []BlendKind{BlendAlpha, BlendGaussian, BlendLaplacian} {
		if strings.HasPrefix(k.String(), "blend(") {
			t.Fatalf("kind %d missing label", k)
		}
	}
	if BlendKind(9).String() != "blend(9)" {
		t.Fatal("unknown kind label wrong")
	}
}

func TestTransformHookApplied(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	raw := vidstream.New(30)
	if err := raw.Append(imagex.NewFilled(20, 20, imagex.RGB{R: 50, G: 50, B: 50})); err != nil {
		t.Fatal(err)
	}
	sil := imagex.NewMask(20, 20) // caller absent
	marker := imagex.RGB{R: 1, G: 2, B: 3}
	opts := Options{
		Profile: func() Profile { // error-free profile: pure VB output
			p := ProfileZoom()
			p.Matting.LeakRate = 0
			p.Matting.CutRate = 0
			p.Matting.WarmupPatches = 0
			p.Matting.TrailKeep = 0
			return p
		}(),
		Virtual: StaticImage{Img: imagex.New(20, 20)},
		Transform: func(vb, raw *imagex.Image, i int) *imagex.Image {
			return imagex.NewFilled(vb.W, vb.H, marker)
		},
	}
	res, err := Compose(raw, []*imagex.Mask{sil}, opts, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blended.Frames[0].At(10, 10) != marker {
		t.Fatal("transform output not blended")
	}
}

func TestDistanceRings(t *testing.T) {
	m := imagex.NewMask(11, 11)
	m.Set(5, 5, true)
	dist := distanceRings(m, 3)
	if dist[5*11+5] != 0 {
		t.Fatal("inside pixel must have distance 0")
	}
	if dist[5*11+6] != 1 {
		t.Fatalf("adjacent pixel distance = %d, want 1", dist[5*11+6])
	}
	if dist[5*11+8] != 3 {
		t.Fatalf("3-away pixel distance = %d, want 3", dist[5*11+8])
	}
	if dist[5*11+10] != 0 {
		t.Fatal("beyond radius must be 0")
	}
}

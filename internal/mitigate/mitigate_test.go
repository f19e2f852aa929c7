package mitigate

import (
	"math/rand"
	"testing"

	"github.com/bgbuster/bgbuster/internal/compositor"
	"github.com/bgbuster/bgbuster/internal/imagex"
	"github.com/bgbuster/bgbuster/internal/vidstream"
)

func TestDynamicVBNilRngPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DynamicVB(DefaultDynamicVBConfig(), nil)
}

func TestDynamicVBChangesPerFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := DynamicVB(DefaultDynamicVBConfig(), rng)
	vb := compositor.BuiltinImage("beach", 40, 30)
	raw := imagex.NewFilled(40, 30, imagex.RGB{R: 60, G: 90, B: 60})

	a := tr(vb, raw, 0)
	b := tr(vb, raw, 1)
	if a.Equal(b) {
		t.Fatal("hue jitter must make consecutive VB frames differ")
	}
	if a.Equal(vb) {
		t.Fatal("transform must alter the virtual background")
	}
}

func TestDynamicVBAdaptsBrightness(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := DefaultDynamicVBConfig()
	cfg.HueJitter = 0 // isolate the adaptation term
	tr := DynamicVB(cfg, rng)

	brightVB := imagex.NewFilled(32, 32, imagex.RGB{R: 230, G: 230, B: 230})
	darkRaw := imagex.NewFilled(32, 32, imagex.RGB{R: 25, G: 25, B: 25})
	out := tr(brightVB, darkRaw, 0)
	if out.MeanLuminance() >= brightVB.MeanLuminance() {
		t.Fatal("VB must darken toward a dark real background")
	}

	darkVB := imagex.NewFilled(32, 32, imagex.RGB{R: 20, G: 20, B: 20})
	brightRaw := imagex.NewFilled(32, 32, imagex.RGB{R: 220, G: 220, B: 220})
	out = tr(darkVB, brightRaw, 0)
	if out.MeanLuminance() <= darkVB.MeanLuminance() {
		t.Fatal("VB must brighten toward a bright real background")
	}
}

func TestDynamicVBDefeatsPixelMatching(t *testing.T) {
	// The core of Fig. 15: a perfect copy of the original VB no longer
	// matches the transformed output at the reconstruction tolerance.
	rng := rand.New(rand.NewSource(3))
	tr := DynamicVB(DefaultDynamicVBConfig(), rng)
	vb := compositor.BuiltinImage("office", 60, 45)
	raw := imagex.NewFilled(60, 45, imagex.RGB{R: 120, G: 100, B: 80})
	out := tr(vb, raw, 0)
	matches := imagex.MatchMaskInto(nil, out, vb, 14).Count()
	if frac := float64(matches) / float64(60*45); frac > 0.3 {
		t.Fatalf("%.0f%% of dynamic VB still matches the original", frac*100)
	}
}

func TestRandomVBDistinctPerCall(t *testing.T) {
	a := RandomVB(40, 30, rand.New(rand.NewSource(1)))
	b := RandomVB(40, 30, rand.New(rand.NewSource(2)))
	if a.Equal(b) {
		t.Fatal("random VBs from different seeds must differ")
	}
	c := RandomVB(40, 30, rand.New(rand.NewSource(1)))
	if !a.Equal(c) {
		t.Fatal("random VB must be deterministic per seed")
	}
}

func TestRandomVBNilRngPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	RandomVB(10, 10, nil)
}

func TestFrameDrop(t *testing.T) {
	v := vidstream.New(30)
	for i := 0; i < 10; i++ {
		f := imagex.NewFilled(4, 4, imagex.RGB{R: uint8(i)})
		if err := v.Append(f); err != nil {
			t.Fatal(err)
		}
	}
	d := FrameDrop(v, 3)
	if d.Len() != 4 { // frames 0,3,6,9
		t.Fatalf("kept %d frames, want 4", d.Len())
	}
	if d.Frames[1].At(0, 0).R != 3 {
		t.Fatal("wrong frames kept")
	}
	if d.FPS != 10 {
		t.Fatalf("fps = %d, want 10", d.FPS)
	}
	if FrameDrop(v, 0).Len() != 10 {
		t.Fatal("keepEvery<1 must keep everything")
	}
}

func TestDeepfakeReplayNeverLeaksLaterFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	v := vidstream.New(30)
	secret := imagex.RGB{R: 255, G: 0, B: 255}
	for i := 0; i < 15; i++ {
		f := imagex.NewFilled(20, 20, imagex.RGB{R: 100, G: 100, B: 100})
		if i > 0 {
			// Later frames contain a "secret" that must never transmit.
			f.FillRect(5, 5, 15, 15, secret)
		}
		if err := v.Append(f); err != nil {
			t.Fatal(err)
		}
	}
	out, err := DeepfakeReplay(v, rng)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != v.Len() {
		t.Fatal("frame count must be preserved")
	}
	for i, f := range out.Frames {
		for _, p := range f.Pix {
			if p == secret {
				t.Fatalf("secret pixel leaked in frame %d", i)
			}
		}
	}
	// Output must still animate.
	if out.Frames[1].Equal(out.Frames[5]) {
		t.Fatal("deepfake frames must differ over time")
	}
}

func TestDeepfakeReplayEmptyVideo(t *testing.T) {
	if _, err := DeepfakeReplay(vidstream.New(30), rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("empty video must error")
	}
}

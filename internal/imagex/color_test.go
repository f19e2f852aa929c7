package imagex

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestToHSVKnownColors(t *testing.T) {
	cases := []struct {
		in   RGB
		want HSV
	}{
		{RGB{255, 0, 0}, HSV{0, 1, 1}},
		{RGB{0, 255, 0}, HSV{120, 1, 1}},
		{RGB{0, 0, 255}, HSV{240, 1, 1}},
		{RGB{255, 255, 255}, HSV{0, 0, 1}},
		{RGB{0, 0, 0}, HSV{0, 0, 0}},
		{RGB{128, 128, 128}, HSV{0, 0, 128.0 / 255}},
	}
	for _, c := range cases {
		got := c.in.ToHSV()
		if math.Abs(got.H-c.want.H) > 0.5 || math.Abs(got.S-c.want.S) > 0.01 || math.Abs(got.V-c.want.V) > 0.01 {
			t.Errorf("ToHSV(%v) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestHSVRoundTrip(t *testing.T) {
	f := func(r, g, b uint8) bool {
		in := RGB{r, g, b}
		out := in.ToHSV().ToRGB()
		// Rounding through float HSV can move each channel by at most 1.
		return absInt(int(in.R)-int(out.R)) <= 1 &&
			absInt(int(in.G)-int(out.G)) <= 1 &&
			absInt(int(in.B)-int(out.B)) <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestToRGBClampsInputs(t *testing.T) {
	c := HSV{H: -30, S: 5, V: -2}.ToRGB()
	if c != Black {
		t.Fatalf("negative value must clamp to black, got %v", c)
	}
	c = HSV{H: 725, S: 1, V: 1}.ToRGB()
	want := HSV{H: 5, S: 1, V: 1}.ToRGB()
	if c != want {
		t.Fatalf("hue wraps mod 360: got %v want %v", c, want)
	}
}

func TestHueDistance(t *testing.T) {
	cases := []struct {
		a, b, want float64
	}{
		{0, 0, 0},
		{0, 180, 180},
		{10, 350, 20},
		{350, 10, 20},
		{90, 270, 180},
		{-10, 10, 20},
	}
	for _, c := range cases {
		if got := HueDistance(c.a, c.b); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("HueDistance(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestPropertyHueDistanceMetric(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Mod(a, 1e6)
		b = math.Mod(b, 1e6)
		d := HueDistance(a, b)
		return d >= 0 && d <= 180 && math.Abs(d-HueDistance(b, a)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestLuminanceOrdering(t *testing.T) {
	if Black.Luminance() != 0 {
		t.Fatal("black luminance must be 0")
	}
	if w := White.Luminance(); math.Abs(w-255) > 0.01 {
		t.Fatalf("white luminance = %v", w)
	}
	if (RGB{0, 255, 0}).Luminance() <= (RGB{0, 0, 255}).Luminance() {
		t.Fatal("green must be brighter than blue under Rec. 601")
	}
}

func TestMeanLuminance(t *testing.T) {
	im := New(2, 1)
	im.Set(0, 0, White)
	got := im.MeanLuminance()
	if math.Abs(got-127.5) > 0.01 {
		t.Fatalf("MeanLuminance = %v, want 127.5", got)
	}
}

func TestMeanLuminanceUniformInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		c := RGB{uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))}
		im := NewFilled(5, 5, c)
		if math.Abs(im.MeanLuminance()-c.Luminance()) > 1e-9 {
			t.Fatalf("uniform image luminance mismatch for %v", c)
		}
	}
}

// refToHSV is the textbook conversion ToHSV must reproduce bit for bit:
// float channels, float max/min, seven divisions and math.Mod on the
// red-max branch.
func refToHSV(c RGB) HSV {
	r := float64(c.R) / 255
	g := float64(c.G) / 255
	b := float64(c.B) / 255
	maxC := math.Max(r, math.Max(g, b))
	minC := math.Min(r, math.Min(g, b))
	delta := maxC - minC

	var h float64
	switch {
	case delta == 0:
		h = 0
	case maxC == r:
		h = 60 * math.Mod((g-b)/delta, 6)
	case maxC == g:
		h = 60 * ((b-r)/delta + 2)
	default:
		h = 60 * ((r-g)/delta + 4)
	}
	if h < 0 {
		h += 360
	}

	s := 0.0
	if maxC > 0 {
		s = delta / maxC
	}
	return HSV{H: h, S: s, V: maxC}
}

// TestToHSVExhaustive compares ToHSV with refToHSV on all 2^24 colours,
// component by component as float64 bits.
func TestToHSVExhaustive(t *testing.T) {
	bad := 0
	for v := 0; v < 1<<24; v++ {
		c := RGB{uint8(v >> 16), uint8(v >> 8), uint8(v)}
		got, want := c.ToHSV(), refToHSV(c)
		if math.Float64bits(got.H) != math.Float64bits(want.H) ||
			math.Float64bits(got.S) != math.Float64bits(want.S) ||
			math.Float64bits(got.V) != math.Float64bits(want.V) {
			if bad++; bad <= 5 {
				t.Errorf("ToHSV(%v) = %+v, want %+v", c, got, want)
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d colours differ", bad)
	}
}

// TestSaturatedHuesExhaustive compares SaturatedHues with ToHSV on all
// 2^24 colours at several floors: a pixel passes exactly when ToHSV's
// S >= floor, with float32 of ToHSV's hue, and holds none otherwise.
// It also pins the hue range the location matcher relies on: every hue
// lies in [0, 360), still after rounding to float32.
func TestSaturatedHuesExhaustive(t *testing.T) {
	const none = -1
	floors := []float64{0, 0.12, 1, 1.1, math.NaN(), RGB{200, 100, 50}.ToHSV().S}
	src := make([]RGB, 1<<16)
	want := make([]HSV, len(src))
	dst := make([]float32, len(src))
	bad := 0
	for base := 0; base < 1<<24; base += len(src) {
		for i := range src {
			v := base + i
			src[i] = RGB{uint8(v >> 16), uint8(v >> 8), uint8(v)}
			want[i] = src[i].ToHSV()
			if h := want[i].H; !(h >= 0 && float32(h) < 360) {
				if bad++; bad <= 5 {
					t.Errorf("ToHSV(%v).H = %v, float32 %v: outside [0, 360)", src[i], h, float32(h))
				}
			}
		}
		for _, floor := range floors {
			SaturatedHues(dst, src, floor, none)
			for i, got := range dst {
				exp := float32(none)
				if want[i].S >= floor {
					exp = float32(want[i].H)
				}
				if math.Float32bits(got) != math.Float32bits(exp) {
					if bad++; bad <= 5 {
						t.Errorf("SaturatedHues(%v, floor %v) = %v, want %v (ToHSV %+v)", src[i], floor, got, exp, want[i])
					}
				}
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d mismatches", bad)
	}
}

package imagex

import "math"

// HSV holds a hue-saturation-value triple. H is in degrees [0, 360), S
// and V are in [0, 1]. The location-inference attack (Section VI) matches
// on hue while ignoring saturation, which is dominated by ambient light.
type HSV struct {
	H, S, V float64
}

// unit255 holds v/255 for every byte v: the same quotient ToHSV would
// divide out per channel, read from a table instead.
var unit255 = func() (t [256]float64) {
	for v := range t {
		t[v] = float64(v) / 255
	}
	return t
}()

// ToHSV converts an RGB pixel to HSV.
//
// It is bit-identical to the textbook float conversion (max/min of
// r/255, g/255, b/255, math.Mod on the red-max branch): v/255 is
// monotone, so the float max is the float of the max byte and the
// max-channel tests can compare bytes; unit255 holds the same
// quotients; (g-b)/delta lies in [-1, 1], where math.Mod(x, 6) is x;
// and the red sector's added offset of +0 leaves that quotient as it is
// (x + 0 is x for every x but -0, and a difference of two equal table
// values is +0), so all three sectors share one expression.
func (c RGB) ToHSV() HSV {
	maxB, maxC, delta, s := c.chroma()
	return HSV{H: c.hue(maxB, delta), S: s, V: maxC}
}

// SaturatedHues writes into dst, for each pixel of src, ToHSV's hue
// rounded to float32 when the pixel's saturation is at least floor, and
// none otherwise. It runs ToHSV's arithmetic on the same operands, so
// the hue and the floor test have ToHSV's bits, but it tests saturation
// first: a pixel below the floor skips the hue division, and no pixel
// builds V or the HSV struct. dst must be at least as long as src.
func SaturatedHues(dst []float32, src []RGB, floor float64, none float32) {
	dst = dst[:len(src)]
	for i, c := range src {
		maxB, _, delta, s := c.chroma()
		if s >= floor {
			dst[i] = float32(c.hue(maxB, delta))
		} else {
			dst[i] = none
		}
	}
}

// chroma returns the max byte, its value max/255, the chroma delta
// (max-min)/255 and the saturation delta/max (0 for black).
func (c RGB) chroma() (maxB uint8, maxC, delta, s float64) {
	maxB = max(c.R, c.G, c.B)
	maxC = unit255[maxB]
	delta = maxC - unit255[min(c.R, c.G, c.B)]
	if maxB > 0 {
		s = delta / maxC
	}
	return maxB, maxC, delta, s
}

// hue returns the hue in degrees for the pixel's max byte and chroma.
// The max channel picks the difference and the sector offset, so the
// three sectors share one expression and hue is small enough to inline.
func (c RGB) hue(maxB uint8, delta float64) float64 {
	if delta == 0 {
		return 0
	}
	a, b, sector := c.G, c.B, 0
	if maxB != c.R {
		a, b, sector = c.R, c.G, 4
		if maxB == c.G {
			a, b, sector = c.B, c.R, 2
		}
	}
	h := 60 * ((unit255[a]-unit255[b])/delta + float64(sector))
	if h < 0 {
		h += 360
	}
	return h
}

// ToRGB converts an HSV triple back to RGB. Out-of-range components are
// clamped so the conversion is total.
func (c HSV) ToRGB() RGB {
	h := math.Mod(c.H, 360)
	if h < 0 {
		h += 360
	}
	s := clamp01(c.S)
	v := clamp01(c.V)

	cc := v * s
	x := cc * (1 - math.Abs(math.Mod(h/60, 2)-1))
	m := v - cc

	var r, g, b float64
	switch {
	case h < 60:
		r, g, b = cc, x, 0
	case h < 120:
		r, g, b = x, cc, 0
	case h < 180:
		r, g, b = 0, cc, x
	case h < 240:
		r, g, b = 0, x, cc
	case h < 300:
		r, g, b = x, 0, cc
	default:
		r, g, b = cc, 0, x
	}
	return RGB{
		R: clampU8((r + m) * 255),
		G: clampU8((g + m) * 255),
		B: clampU8((b + m) * 255),
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// HueDistance returns the circular distance between two hues in degrees,
// in [0, 180]. Hues already in [0, 360) skip normHue: math.Mod(h, 360)
// returns such an h unchanged, and the two calls cost more than the
// rest of the distance.
func HueDistance(a, b float64) float64 {
	if !(a >= 0 && a < 360 && b >= 0 && b < 360) {
		a, b = normHue(a), normHue(b)
	}
	d := math.Abs(a - b)
	if d > 180 {
		d = 360 - d
	}
	return d
}

// normHue maps any finite hue into [0, 360).
func normHue(h float64) float64 {
	h = math.Mod(h, 360)
	if h < 0 {
		h += 360
	}
	return h
}

// Luminance returns the Rec. 601 luma of the pixel in [0, 255]. The
// compositor's matting error model keys on scene luminance (darker scenes
// segment worse).
func (c RGB) Luminance() float64 {
	return 0.299*float64(c.R) + 0.587*float64(c.G) + 0.114*float64(c.B)
}

// MeanLuminance returns the average luma over all pixels of the image.
func (im *Image) MeanLuminance() float64 {
	if len(im.Pix) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range im.Pix {
		sum += p.Luminance()
	}
	return sum / float64(len(im.Pix))
}

// Lerp linearly interpolates between two pixels: t=0 yields a, t=1 yields
// b. It is the alpha-blending primitive used by the compositor's blend
// band (Figure 1 of the paper).
func Lerp(a, b RGB, t float64) RGB {
	t = clamp01(t)
	return RGB{
		R: clampU8(float64(a.R) + (float64(b.R)-float64(a.R))*t),
		G: clampU8(float64(a.G) + (float64(b.G)-float64(a.G))*t),
		B: clampU8(float64(a.B) + (float64(b.B)-float64(a.B))*t),
	}
}

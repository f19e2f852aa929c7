// Package imagex provides the image substrate used throughout Background
// Buster: packed RGB frames, binary masks with morphological operations,
// color-space conversions, and drawing primitives.
//
// The paper (Section III) represents a video frame as an m×n array of
// 24-bit Truecolor pixels; Image is exactly that, stored row-major.
package imagex

import (
	"errors"
	"fmt"
)

// RGB is a 24-bit Truecolor pixel as described in the paper's technical
// background: one 8-bit intensity per primary color.
type RGB struct {
	R, G, B uint8
}

// Common colors used by the scene and person renderers.
var (
	Black = RGB{0, 0, 0}
	White = RGB{255, 255, 255}
)

// Equal reports whether two pixels store identical color information.
func (c RGB) Equal(o RGB) bool { return c == o }

// Image is a W×H raster of RGB pixels stored row-major. It corresponds to
// a single frame f^i in the paper's video model.
type Image struct {
	W, H int
	Pix  []RGB
}

// ErrBounds is returned by operations that reference coordinates outside
// an image or mask.
var ErrBounds = errors.New("imagex: coordinates out of bounds")

// New returns a black image of the given dimensions. It panics if either
// dimension is non-positive; frames of zero area are never meaningful in
// this codebase and indicate a caller bug.
func New(w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imagex: invalid image size %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]RGB, w*h)}
}

// NewFilled returns an image of the given dimensions with every pixel set
// to c.
func NewFilled(w, h int, c RGB) *Image {
	img := New(w, h)
	for i := range img.Pix {
		img.Pix[i] = c
	}
	return img
}

// In reports whether (x, y) lies inside the image.
func (im *Image) In(x, y int) bool {
	return x >= 0 && x < im.W && y >= 0 && y < im.H
}

// At returns the pixel at (x, y). Out-of-bounds reads return Black, which
// mirrors how the matting pipeline treats pixels outside the sensor area.
func (im *Image) At(x, y int) RGB {
	if !im.In(x, y) {
		return Black
	}
	return im.Pix[y*im.W+x]
}

// Set writes the pixel at (x, y). Out-of-bounds writes are ignored so
// renderers may draw shapes that partially exit the frame.
func (im *Image) Set(x, y int, c RGB) {
	if !im.In(x, y) {
		return
	}
	im.Pix[y*im.W+x] = c
}

// Clone returns a deep copy of the image.
func (im *Image) Clone() *Image {
	out := New(im.W, im.H)
	copy(out.Pix, im.Pix)
	return out
}

// SameSize reports whether two images have identical dimensions.
func (im *Image) SameSize(o *Image) bool { return im.W == o.W && im.H == o.H }

// Equal reports whether two images are pixel-identical.
func (im *Image) Equal(o *Image) bool {
	if !im.SameSize(o) {
		return false
	}
	for i := range im.Pix {
		if im.Pix[i] != o.Pix[i] {
			return false
		}
	}
	return true
}

// Fill sets every pixel to c.
func (im *Image) Fill(c RGB) {
	for i := range im.Pix {
		im.Pix[i] = c
	}
}

// CopyFrom overwrites this image's pixels with src's. It returns
// ErrBounds if dimensions differ.
func (im *Image) CopyFrom(src *Image) error {
	if !im.SameSize(src) {
		return fmt.Errorf("imagex: copy %dx%d from %dx%d: %w", im.W, im.H, src.W, src.H, ErrBounds)
	}
	copy(im.Pix, src.Pix)
	return nil
}

// Blit copies src onto the image with src's top-left at (x, y). The
// destination rectangle must lie fully inside the image; ErrBounds
// otherwise. Pixels are copied verbatim — the gallery compositor relies
// on Blit followed by Crop being the identity on src.
func (im *Image) Blit(src *Image, x, y int) error {
	if x < 0 || y < 0 || x+src.W > im.W || y+src.H > im.H {
		return fmt.Errorf("imagex: blit %dx%d at +%d+%d of %dx%d: %w", src.W, src.H, x, y, im.W, im.H, ErrBounds)
	}
	for row := 0; row < src.H; row++ {
		dst := (y+row)*im.W + x
		copy(im.Pix[dst:dst+src.W], src.Pix[row*src.W:(row+1)*src.W])
	}
	return nil
}

// MatchCount returns the number of pixel positions at which the two
// images store identical colors. This implements the paper's
// highest-likelihood estimator core, Σ Σ µ(img ⊕ f), where µ(x)=1 iff
// x = 0. Images of different sizes match at zero positions.
func (im *Image) MatchCount(o *Image) int {
	if !im.SameSize(o) {
		return 0
	}
	n := 0
	for i := range im.Pix {
		if im.Pix[i] == o.Pix[i] {
			n++
		}
	}
	return n
}

// MatchCountTol counts pixels whose per-channel absolute difference is at
// most tol. tol = 0 degenerates to MatchCount.
func (im *Image) MatchCountTol(o *Image, tol int) int {
	if !im.SameSize(o) {
		return 0
	}
	if tol <= 0 {
		return im.MatchCount(o)
	}
	n := 0
	for i := range im.Pix {
		if WithinTol(im.Pix[i], o.Pix[i], tol) {
			n++
		}
	}
	return n
}

// WithinTol reports whether a and b differ by at most tol on every
// channel — the per-pixel match test behind VB matching, diff masks and
// the recovery metrics. A negative tol matches nothing.
func WithinTol(a, b RGB, tol int) bool {
	return absInt(int(a.R)-int(b.R)) <= tol &&
		absInt(int(a.G)-int(b.G)) <= tol &&
		absInt(int(a.B)-int(b.B)) <= tol
}

// DiffMask returns a mask that is set wherever the two images differ by
// more than tol on any channel. It returns ErrBounds if sizes differ.
func (im *Image) DiffMask(o *Image, tol int) (*Mask, error) {
	if !im.SameSize(o) {
		return nil, fmt.Errorf("imagex: diff %dx%d vs %dx%d: %w", im.W, im.H, o.W, o.H, ErrBounds)
	}
	m := MatchMaskInto(nil, im, o, tol)
	m.Invert()
	return m, nil
}

// MatchMaskInto writes into dst the mask of pixels where a and b are
// WithinTol, and returns it. It allocates only when dst is nil or
// mis-sized; every word is overwritten, so dst need not be cleared. It
// panics if a and b differ in size (callers check SameSize).
//
// Each channel's test |d| <= tol is branch-free: with x = d+tol it holds
// iff x and 2tol-x are both non-negative, so OR-ing the six terms leaves
// the sign bit clear exactly for a matching pixel, and that bit goes
// straight into the mask word.
func MatchMaskInto(dst *Mask, a, b *Image, tol int) *Mask {
	if !a.SameSize(b) {
		panic(fmt.Sprintf("imagex: match %dx%d vs %dx%d", a.W, a.H, b.W, b.H))
	}
	w, h := a.W, a.H
	if dst == nil || dst.W != w || dst.H != h {
		dst = NewMask(w, h)
	}
	// |d| <= 255 always holds and |d| <= tol never does for tol < 0, so
	// clamping keeps 2tol small without changing any result.
	tol = min(max(tol, -1), 255)
	tol2 := 2 * tol
	wpr := wordsPerRow(w)
	for y := 0; y < h; y++ {
		pa := a.Pix[y*w : (y+1)*w]
		pb := b.Pix[y*w : (y+1)*w]
		row := dst.words[y*wpr : (y+1)*wpr]
		for x0 := 0; x0 < w; x0 += 64 {
			ca := pa[x0:min(x0+64, w)]
			cb := pb[x0 : x0+len(ca)]
			var word uint64
			for i, p := range ca {
				q := cb[i]
				r := int(p.R) - int(q.R) + tol
				g := int(p.G) - int(q.G) + tol
				bl := int(p.B) - int(q.B) + tol
				out := r | (tol2 - r) | g | (tol2 - g) | bl | (tol2 - bl)
				word |= uint64(^out) >> 63 << uint(i)
			}
			row[x0>>6] = word
		}
	}
	return dst
}

// ApplyMask returns a copy of the image in which pixels where mask is set
// are kept and all other pixels are black. This realises the paper's
// component extraction (e.g. VB^i from f^i via VBM^i).
func (im *Image) ApplyMask(m *Mask) *Image {
	out := New(im.W, im.H)
	if m.W != im.W || m.H != im.H {
		return out
	}
	m.ForEachSet(func(i int) {
		out.Pix[i] = im.Pix[i]
	})
	return out
}

// RemoveMask returns a copy of the image in which pixels where mask is
// set are blacked out; the rest are kept. This realises "removing" a
// component (VB, BB, VC) from a blended frame.
func (im *Image) RemoveMask(m *Mask) *Image {
	out := im.Clone()
	if m.W != im.W || m.H != im.H {
		return out
	}
	m.ForEachSet(func(i int) {
		out.Pix[i] = Black
	})
	return out
}

// ScaleBrightness multiplies every channel of every pixel by factor,
// clamping to [0, 255]. It models the scene lighting switch.
func (im *Image) ScaleBrightness(factor float64) {
	for i, p := range im.Pix {
		im.Pix[i] = RGB{
			R: clampU8(float64(p.R) * factor),
			G: clampU8(float64(p.G) * factor),
			B: clampU8(float64(p.B) * factor),
		}
	}
}

func clampU8(v float64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v + 0.5)
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

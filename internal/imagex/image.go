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
// panics if a and b differ in size (callers check SameSize). Rows run
// through matchRow, eight pixels per step (DESIGN.md §7.3).
func MatchMaskInto(dst *Mask, a, b *Image, tol int) *Mask {
	if !a.SameSize(b) {
		panic(fmt.Sprintf("imagex: match %dx%d vs %dx%d", a.W, a.H, b.W, b.H))
	}
	w, h := a.W, a.H
	if dst == nil || dst.W != w || dst.H != h {
		dst = NewMask(w, h)
	}
	if tol < 0 {
		// |d| <= tol never holds.
		dst.Clear()
		return dst
	}
	// |d| <= 255 always holds, so clamping keeps every lane of the
	// kernel in range without changing any result.
	tol = min(tol, 255)
	wpr := wordsPerRow(w)
	for y := 0; y < h; y++ {
		matchRow(dst.words[y*wpr:(y+1)*wpr], a.Pix[y*w:(y+1)*w], b.Pix[y*w:(y+1)*w], tol)
	}
	return dst
}

// Word constants of the match kernel: lanes16 has a one in each 16-bit
// lane, evenBytes selects the even bytes of a word into those lanes,
// and laneTop is each lane's bit 15.
const (
	lanes16   = 0x0001000100010001
	evenBytes = 0x00ff00ff00ff00ff
	laneTop   = 0x8000800080008000
)

// matchRow writes into row the WithinTol bits of pa against pb, for
// 0 <= tol <= 255; len(row) must be wordsPerRow(len(pa)). match8s
// covers each word's whole 8-pixel groups and the scalar form of the
// same test finishes a row tail shorter than 8 pixels.
func matchRow(row []uint64, pa, pb []RGB, tol int) {
	k := lanes16 * uint64(0x8000+tol)
	d := lanes16 * uint64(2*tol+1)
	tol2 := 2 * tol
	w := len(pa)
	pb = pb[:w]
	for x0 := 0; x0 < w; x0 += 64 {
		ca := pa[x0:min(x0+64, w)]
		cb := pb[x0 : x0+len(ca)]
		word := match8s(ca, cb, k, d)
		// Per channel x = a − b + tol matches iff x and 2tol − x are
		// both non-negative, so the sign bit of the OR of the six terms
		// is clear exactly for a matching pixel.
		for i := len(ca) &^ 7; i < len(ca); i++ {
			p, q := ca[i], cb[i]
			r := int(p.R) - int(q.R) + tol
			g := int(p.G) - int(q.G) + tol
			bl := int(p.B) - int(q.B) + tol
			out := r | (tol2 - r) | g | (tol2 - g) | bl | (tol2 - bl)
			word |= uint64(^out) >> 63 << uint(i)
		}
		row[x0>>6] = word
	}
}

// match8s returns the match bits (pixel i at bit i) of the whole 8-pixel
// groups of p against q, which hold at most 64 pixels of equal count;
// k = 0x8000+tol and d = 2tol+1 in every 16-bit lane.
//
// A group's 24 bytes are three little-endian words per image, each word
// split into its even and odd bytes in 16-bit lanes. A lane holds
// t = a − b + tol + 0x8000, in [0x7f01, 0x81fe], so neither t nor
// t − d carries across lanes. The channel matches iff 0 <= a − b + tol
// <= 2tol, that is iff bit 15 is set in t and clear in t − d; t − d < t,
// so that is bit 15 of t ^ (t − d). Byte j of a group word gets its flag
// at bit 8j+7 (f0, f1, f2).
//
// A pixel's three flags are ANDed at its middle byte: bytes 1, 4, 7 of
// f0 (pixels 0-2, where pixel 2 reaches byte 0 of f1), 2 and 5 of f1
// (pixels 3-4), and 0, 3, 6 of f2 (pixels 5-7, where pixel 5 reaches
// byte 7 of f1). Those eight bytes are disjoint, so one word holds all
// eight flags and one multiply gathers them into its top byte in pixel
// order: the shift for byte j is 56 + pixel − 8j, distinct mod 8, so no
// two partial products meet and nothing carries.
//
// A group whose 24 bytes equal q's matches whole without the lane test:
// |a − b| = 0 <= tol for every tol in 0..255, and a negative tol never
// reaches the kernel. In a composited call most VB-region groups are
// the VB's own bytes.
func match8s(p, q []RGB, k, d uint64) uint64 {
	q = q[:len(p)]
	var word uint64
	for g := 0; g+8 <= len(p); g += 8 {
		a, b := (*[8]RGB)(p[g:g+8]), (*[8]RGB)(q[g:g+8])
		a0 := uint64(a[0].R) | uint64(a[0].G)<<8 | uint64(a[0].B)<<16 | uint64(a[1].R)<<24 |
			uint64(a[1].G)<<32 | uint64(a[1].B)<<40 | uint64(a[2].R)<<48 | uint64(a[2].G)<<56
		b0 := uint64(b[0].R) | uint64(b[0].G)<<8 | uint64(b[0].B)<<16 | uint64(b[1].R)<<24 |
			uint64(b[1].G)<<32 | uint64(b[1].B)<<40 | uint64(b[2].R)<<48 | uint64(b[2].G)<<56
		a1 := uint64(a[2].B) | uint64(a[3].R)<<8 | uint64(a[3].G)<<16 | uint64(a[3].B)<<24 |
			uint64(a[4].R)<<32 | uint64(a[4].G)<<40 | uint64(a[4].B)<<48 | uint64(a[5].R)<<56
		b1 := uint64(b[2].B) | uint64(b[3].R)<<8 | uint64(b[3].G)<<16 | uint64(b[3].B)<<24 |
			uint64(b[4].R)<<32 | uint64(b[4].G)<<40 | uint64(b[4].B)<<48 | uint64(b[5].R)<<56
		a2 := uint64(a[5].G) | uint64(a[5].B)<<8 | uint64(a[6].R)<<16 | uint64(a[6].G)<<24 |
			uint64(a[6].B)<<32 | uint64(a[7].R)<<40 | uint64(a[7].G)<<48 | uint64(a[7].B)<<56
		b2 := uint64(b[5].G) | uint64(b[5].B)<<8 | uint64(b[6].R)<<16 | uint64(b[6].G)<<24 |
			uint64(b[6].B)<<32 | uint64(b[7].R)<<40 | uint64(b[7].G)<<48 | uint64(b[7].B)<<56
		if (a0^b0)|(a1^b1)|(a2^b2) == 0 {
			word |= 0xff << uint(g)
			continue
		}
		f0 := byteFlags(a0, b0, k, d)
		f1 := byteFlags(a1, b1, k, d)
		f2 := byteFlags(a2, b2, k, d)
		m := f0&(f0<<8)&(f0>>8|f1<<56)&0x8000008000008000 |
			f1&(f1<<8)&(f1>>8)&0x0000800000800000 |
			f2&(f2<<8|f1>>56)&(f2>>8)&0x0080000080000080
		word |= (m >> 7) * (1<<61 | 1<<48 | 1<<43 | 1<<38 | 1<<25 | 1<<20 | 1<<15 | 1<<2) >> 56 << uint(g)
	}
	return word
}

// byteFlags sets bit 8j+7 of its result iff bytes j of a and b match
// under match8s's lane constants k and d.
func byteFlags(a, b, k, d uint64) uint64 {
	even := a&evenBytes + k - b&evenBytes
	odd := a>>8&evenBytes + k - b>>8&evenBytes
	return (even^(even-d))&laneTop>>8 | (odd^(odd-d))&laneTop
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

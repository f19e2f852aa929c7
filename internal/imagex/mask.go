package imagex

import (
	"fmt"
	"math/bits"
)

// Mask is a W×H bitmap. In the paper's terminology a mask pixel value of
// 1 (255,255,255) marks foreground membership and 0 marks background.
// Masks represent the per-frame components VBM, BBM, VCM and the leaked
// background LB.
//
// Storage is a word-packed bitset: each row occupies (W+63)/64 uint64
// words, and bit x of row y lives in word y*wpr + x>>6 at bit position
// x&63 (LSB = lowest x). Rows are word-aligned so horizontal morphology
// reduces to per-row word shifts, and the set operations
// (Union/Subtract/Intersect/Xor) and the population counts
// (Count/Overlap/Fraction) run one uint64 at a time — 64 pixels per
// memory touch instead of one.
//
// Invariant: the padding bits past W in each row's last word are always
// zero. Every mutator maintains it, so whole-word operations need no
// per-bit edge handling.
type Mask struct {
	W, H  int
	words []uint64
}

// wordsPerRow returns the per-row word stride for width w.
func wordsPerRow(w int) int { return (w + 63) >> 6 }

// edgeMask returns the valid-bit mask for the last word of a row of
// width w (all ones when w is a multiple of 64).
func edgeMask(w int) uint64 {
	if w&63 == 0 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(w&63)) - 1
}

// NewMask returns an all-clear mask of the given dimensions. It panics on
// non-positive dimensions, matching New.
func NewMask(w, h int) *Mask {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imagex: invalid mask size %dx%d", w, h))
	}
	return &Mask{W: w, H: h, words: make([]uint64, h*wordsPerRow(w))}
}

// NewMasks returns n all-clear w×h masks cut from one word slab, so the
// set costs two allocations whatever n is. It panics on non-positive
// dimensions, matching NewMask.
func NewMasks(w, h, n int) []Mask {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imagex: invalid mask size %dx%d", w, h))
	}
	size := h * wordsPerRow(w)
	slab := make([]uint64, n*size)
	ms := make([]Mask, n)
	for i := range ms {
		ms[i] = Mask{W: w, H: h, words: slab[i*size : (i+1)*size : (i+1)*size]}
	}
	return ms
}

// NewFullMask returns an all-set mask.
func NewFullMask(w, h int) *Mask {
	m := NewMask(w, h)
	for i := range m.words {
		m.words[i] = ^uint64(0)
	}
	m.maskEdges()
	return m
}

// maskEdges clears the row-padding bits, restoring the invariant after a
// whole-word mutation that may have set them.
func (m *Mask) maskEdges() {
	edge := edgeMask(m.W)
	if edge == ^uint64(0) {
		return
	}
	wpr := wordsPerRow(m.W)
	for y := 0; y < m.H; y++ {
		m.words[y*wpr+wpr-1] &= edge
	}
}

// row returns the word slice of row y.
func (m *Mask) row(y int) []uint64 {
	wpr := wordsPerRow(m.W)
	return m.words[y*wpr : (y+1)*wpr : (y+1)*wpr]
}

// In reports whether (x, y) lies inside the mask.
func (m *Mask) In(x, y int) bool {
	return x >= 0 && x < m.W && y >= 0 && y < m.H
}

// At returns the bit at (x, y); out-of-bounds reads return false.
func (m *Mask) At(x, y int) bool {
	if !m.In(x, y) {
		return false
	}
	return m.words[y*wordsPerRow(m.W)+x>>6]>>(uint(x)&63)&1 != 0
}

// Set writes the bit at (x, y); out-of-bounds writes are ignored.
func (m *Mask) Set(x, y int, v bool) {
	if !m.In(x, y) {
		return
	}
	w := &m.words[y*wordsPerRow(m.W)+x>>6]
	if v {
		*w |= 1 << (uint(x) & 63)
	} else {
		*w &^= 1 << (uint(x) & 63)
	}
}

// Len returns the number of pixels (W×H).
func (m *Mask) Len() int { return m.W * m.H }

// GetI returns the bit at row-major linear index i = y*W + x. It panics
// when i is outside [0, Len()), matching a slice access.
func (m *Mask) GetI(i int) bool {
	y := i / m.W
	x := i - y*m.W
	if y >= m.H || i < 0 {
		panic(fmt.Sprintf("imagex: mask index %d out of range %d", i, m.Len()))
	}
	return m.words[y*wordsPerRow(m.W)+x>>6]>>(uint(x)&63)&1 != 0
}

// SetI writes the bit at row-major linear index i = y*W + x. It panics
// when i is outside [0, Len()), matching a slice access.
func (m *Mask) SetI(i int, v bool) {
	y := i / m.W
	x := i - y*m.W
	if y >= m.H || i < 0 {
		panic(fmt.Sprintf("imagex: mask index %d out of range %d", i, m.Len()))
	}
	w := &m.words[y*wordsPerRow(m.W)+x>>6]
	if v {
		*w |= 1 << (uint(x) & 63)
	} else {
		*w &^= 1 << (uint(x) & 63)
	}
}

// SetSpan sets the bits [x0, x1) of row y, clipping silently at the mask
// border. Renderers use it to record painted rectangle rows in one word
// operation per 64 pixels.
func (m *Mask) SetSpan(y, x0, x1 int) {
	if y < 0 || y >= m.H {
		return
	}
	if x0 < 0 {
		x0 = 0
	}
	if x1 > m.W {
		x1 = m.W
	}
	if x0 >= x1 {
		return
	}
	setRange(m.row(y), x0, x1)
}

// ForEachSet calls fn with the row-major linear index (y*W + x) of every
// set bit, in ascending order. The word holding the current run of bits
// is snapshotted, so fn may clear bits at or before the index it was
// called with (e.g. the color-refinement drop pass) without affecting
// the iteration.
func (m *Mask) ForEachSet(fn func(i int)) {
	wpr := wordsPerRow(m.W)
	for y := 0; y < m.H; y++ {
		base := y * m.W
		row := m.words[y*wpr : (y+1)*wpr]
		for wi, w := range row {
			for w != 0 {
				fn(base + wi<<6 + bits.TrailingZeros64(w))
				w &= w - 1
			}
		}
	}
}

// BuildMask constructs a mask of the given dimensions from a per-pixel
// predicate over the row-major linear index; pred is called exactly once
// per pixel in ascending order. Bits accumulate in a register and are
// written one word at a time. Colour-match masks use the branch-free
// MatchMaskInto instead; BuildMask over WithinTol is its reference.
func BuildMask(w, h int, pred func(i int) bool) *Mask {
	m := NewMask(w, h)
	wpr := wordsPerRow(w)
	i := 0
	for y := 0; y < h; y++ {
		row := m.words[y*wpr : (y+1)*wpr]
		for x := 0; x < w; x += 64 {
			n := w - x
			if n > 64 {
				n = 64
			}
			var word uint64
			for b := 0; b < n; b++ {
				if pred(i) {
					word |= 1 << uint(b)
				}
				i++
			}
			row[x>>6] = word
		}
	}
	return m
}

// WordsPerRow returns the mask's per-row word stride: bit x of row y
// lives in word y*WordsPerRow() + x>>6 at position x&63.
func (m *Mask) WordsPerRow() int { return wordsPerRow(m.W) }

// Word returns the packed word wx of row y — bits [wx*64, wx*64+63] of
// that row, LSB = lowest x. Together with OrWord it lets word-granular
// kernels outside this package (the stream's derivation update) read
// and extend a mask 64 pixels per memory touch without per-bit At/Set.
func (m *Mask) Word(y, wx int) uint64 {
	return m.words[y*wordsPerRow(m.W)+wx]
}

// OrWord ORs bits into the packed word wx of row y. Only set bits are
// written, and bits past the row width are discarded, so the padding
// invariant holds for any argument.
func (m *Mask) OrWord(y, wx int, bits uint64) {
	wpr := wordsPerRow(m.W)
	if wx == wpr-1 {
		bits &= edgeMask(m.W)
	}
	m.words[y*wpr+wx] |= bits
}

// SetWord overwrites the packed word wx of row y with bits. Bits past
// the row width are discarded, so the padding invariant holds for any
// argument.
func (m *Mask) SetWord(y, wx int, bits uint64) {
	wpr := wordsPerRow(m.W)
	if wx == wpr-1 {
		bits &= edgeMask(m.W)
	}
	m.words[y*wpr+wx] = bits
}

// AndNotWord clears the bits of packed word wx of row y that are set
// in bits. It only ever clears, so the padding invariant holds for any
// argument.
func (m *Mask) AndNotWord(y, wx int, bits uint64) {
	m.words[y*wordsPerRow(m.W)+wx] &^= bits
}

// Clone returns a deep copy of the mask.
func (m *Mask) Clone() *Mask {
	out := NewMask(m.W, m.H)
	copy(out.words, m.words)
	return out
}

// CopyFrom overwrites this mask's bits with src's. It returns ErrBounds
// if dimensions differ.
func (m *Mask) CopyFrom(src *Mask) error {
	if !m.SameSize(src) {
		return fmt.Errorf("imagex: copy %dx%d from %dx%d: %w", m.W, m.H, src.W, src.H, ErrBounds)
	}
	copy(m.words, src.words)
	return nil
}

// Clear resets every bit.
func (m *Mask) Clear() {
	for i := range m.words {
		m.words[i] = 0
	}
}

// SameSize reports whether two masks have identical dimensions.
func (m *Mask) SameSize(o *Mask) bool { return m.W == o.W && m.H == o.H }

// Equal reports whether two masks are bit-identical.
func (m *Mask) Equal(o *Mask) bool {
	if !m.SameSize(o) {
		return false
	}
	for i, w := range m.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// Count returns the number of set bits.
func (m *Mask) Count() int {
	n := 0
	for _, w := range m.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Fraction returns Count divided by the mask area.
func (m *Mask) Fraction() float64 {
	if m.Len() == 0 {
		return 0
	}
	return float64(m.Count()) / float64(m.Len())
}

// Union sets every bit that is set in o. Masks of differing sizes are
// rejected with ErrBounds.
func (m *Mask) Union(o *Mask) error {
	if !m.SameSize(o) {
		return fmt.Errorf("imagex: union %dx%d with %dx%d: %w", m.W, m.H, o.W, o.H, ErrBounds)
	}
	for i, w := range o.words {
		m.words[i] |= w
	}
	return nil
}

// Subtract clears every bit that is set in o.
func (m *Mask) Subtract(o *Mask) error {
	if !m.SameSize(o) {
		return fmt.Errorf("imagex: subtract %dx%d from %dx%d: %w", o.W, o.H, m.W, m.H, ErrBounds)
	}
	for i, w := range o.words {
		m.words[i] &^= w
	}
	return nil
}

// Intersect clears every bit that is clear in o.
func (m *Mask) Intersect(o *Mask) error {
	if !m.SameSize(o) {
		return fmt.Errorf("imagex: intersect %dx%d with %dx%d: %w", m.W, m.H, o.W, o.H, ErrBounds)
	}
	for i, w := range o.words {
		m.words[i] &= w
	}
	return nil
}

// Xor flips every bit that is set in o (symmetric difference in place).
func (m *Mask) Xor(o *Mask) error {
	if !m.SameSize(o) {
		return fmt.Errorf("imagex: xor %dx%d with %dx%d: %w", m.W, m.H, o.W, o.H, ErrBounds)
	}
	for i, w := range o.words {
		m.words[i] ^= w
	}
	return nil
}

// Invert flips every bit in place.
func (m *Mask) Invert() {
	for i := range m.words {
		m.words[i] = ^m.words[i]
	}
	m.maskEdges()
}

// Overlap returns the number of positions set in both masks; zero when
// sizes differ.
func (m *Mask) Overlap(o *Mask) int {
	if !m.SameSize(o) {
		return 0
	}
	n := 0
	for i, w := range m.words {
		n += bits.OnesCount64(w & o.words[i])
	}
	return n
}

// Dilate returns a new mask in which a bit is set if any source bit lies
// within Euclidean distance radius. This is exactly the paper's blending
// blur recovery (Section V-C): for every pixel with VBM=1, all pixels
// (p, q) with sqrt((p−u)²+(q−w)²) ≤ φ join the blur mask.
func (m *Mask) Dilate(radius int) *Mask {
	return m.DilateInto(nil, radius)
}

// DilateInto writes the dilation of m into dst and returns it,
// allocating when dst is nil, mis-sized, or m itself.
//
// The disc structuring element is decomposed into per-row horizontal
// extents rx(dy) = ⌊√(r²−dy²)⌋: for every source row, the horizontal
// dilations at each extent are built incrementally by OR-ing word-shifted
// copies of the row, then OR-merged into the 2r+1 affected output rows.
// The cost is O(H · r · wpr) word operations — independent of the set-bit
// population — versus the O(set-bits · r²) per-pixel scatter of a naive
// offset walk.
//
// DilateInto builds a transient Dilator per call; hot paths that dilate
// the same geometry and radius repeatedly should hold a Dilator instead,
// which hoists the extent table and scratch rows out of the loop.
func (m *Mask) DilateInto(dst *Mask, radius int) *Mask {
	return NewDilator(m.W, m.H, radius).DilateInto(dst, m)
}

// Boundary returns the set bits that touch (8-connectivity) at least one
// clear or out-of-bounds pixel. The compositor's error model perturbs
// exactly this band. A bit is interior iff its 3-row horizontal-closure
// words are all set: h3(y) = row ∧ (row≪1) ∧ (row≫1), and
// interior = h3(y−1) ∧ h3(y) ∧ h3(y+1), with out-of-bounds rows all
// zero — so the whole band falls out of three word-ANDs per row.
func (m *Mask) Boundary() *Mask {
	out := NewMask(m.W, m.H)
	wpr := wordsPerRow(m.W)

	// h3 per row: pixel and both horizontal neighbours set and in bounds.
	h3 := make([]uint64, m.H*wpr)
	tmp := make([]uint64, wpr)
	for y := 0; y < m.H; y++ {
		src := m.words[y*wpr : (y+1)*wpr]
		row := h3[y*wpr : (y+1)*wpr]
		copy(row, src)
		for j := range tmp {
			tmp[j] = 0
		}
		orShiftLeft(tmp, src, 1)
		for j := range row {
			row[j] &= tmp[j]
		}
		for j := range tmp {
			tmp[j] = 0
		}
		orShiftRight(tmp, src, 1)
		for j := range row {
			row[j] &= tmp[j]
		}
	}

	zero := make([]uint64, wpr)
	for y := 0; y < m.H; y++ {
		up, down := zero, zero
		if y > 0 {
			up = h3[(y-1)*wpr : y*wpr]
		}
		if y+1 < m.H {
			down = h3[(y+1)*wpr : (y+2)*wpr]
		}
		mid := h3[y*wpr : (y+1)*wpr]
		src := m.words[y*wpr : (y+1)*wpr]
		row := out.words[y*wpr : (y+1)*wpr]
		for j := range row {
			row[j] = src[j] &^ (up[j] & mid[j] & down[j])
		}
	}
	return out
}

// ToImage renders the mask as a black-and-white image (set = white),
// matching the paper's bitmap visualisations.
func (m *Mask) ToImage() *Image {
	im := New(m.W, m.H)
	m.ForEachSet(func(i int) {
		im.Pix[i] = White
	})
	return im
}

// WordBytes returns the size of the mask's packed-word encoding
// (AppendWords).
func (m *Mask) WordBytes() int { return MaskWordBytes(m.W, m.H) }

// MaskWordBytes returns the size of a w×h mask's packed-word encoding
// without allocating one: 8 bytes per storage word, rows word-aligned.
// Decoders size a mask section with it before allocating the mask.
func MaskWordBytes(w, h int) int { return 8 * h * wordsPerRow(w) }

// AppendWords appends the packed bitset words to buf in row-major
// order, each word little-endian, and returns the extended slice. The
// encoding is exactly WordBytes() long; geometry is not included — the
// container embedding the mask records it (checkpoint format §11).
func (m *Mask) AppendWords(buf []byte) []byte {
	for _, w := range m.words {
		buf = append(buf,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return buf
}

// LoadWords overwrites the mask from an AppendWords encoding. It
// rejects data of the wrong length and encodings with nonzero
// row-padding bits: the padding invariant backs every whole-word
// operation (Count, Union, …), so a crafted encoding that set those
// bits would silently corrupt set algebra downstream.
func (m *Mask) LoadWords(data []byte) error {
	if len(data) != m.WordBytes() {
		return fmt.Errorf("imagex: mask encoding %d bytes for %dx%d (want %d): %w",
			len(data), m.W, m.H, m.WordBytes(), ErrBounds)
	}
	wpr := wordsPerRow(m.W)
	edge := edgeMask(m.W)
	for i := range m.words {
		w := uint64(data[8*i]) | uint64(data[8*i+1])<<8 | uint64(data[8*i+2])<<16 | uint64(data[8*i+3])<<24 |
			uint64(data[8*i+4])<<32 | uint64(data[8*i+5])<<40 | uint64(data[8*i+6])<<48 | uint64(data[8*i+7])<<56
		if i%wpr == wpr-1 && w&^edge != 0 {
			return fmt.Errorf("imagex: mask encoding has nonzero padding bits in row %d: %w", i/wpr, ErrBounds)
		}
		m.words[i] = w
	}
	return nil
}

// rowEmpty reports whether every word of a row is zero.
func rowEmpty(row []uint64) bool {
	for _, w := range row {
		if w != 0 {
			return false
		}
	}
	return true
}

// setRange sets bits [x0, x1) of a row; callers guarantee 0 ≤ x0 < x1 ≤ W.
func setRange(row []uint64, x0, x1 int) {
	w0, w1 := x0>>6, (x1-1)>>6
	if w0 == w1 {
		row[w0] |= rangeMask(uint(x0&63), uint((x1-1)&63)+1)
		return
	}
	row[w0] |= ^uint64(0) << (uint(x0) & 63)
	for w := w0 + 1; w < w1; w++ {
		row[w] = ^uint64(0)
	}
	row[w1] |= rangeMask(0, uint((x1-1)&63)+1)
}

// rangeMask returns a word with bits [a, b) set; 0 ≤ a < b ≤ 64.
func rangeMask(a, b uint) uint64 {
	return ^uint64(0) >> (64 - (b - a)) << a
}

// orShiftLeft ORs src shifted k bits towards higher x into dst (dst and
// src are same-length row slices). Bits shifted past the row end land in
// the padding; callers re-mask the last word.
func orShiftLeft(dst, src []uint64, k int) {
	wsh, bsh := k>>6, uint(k&63)
	if bsh == 0 {
		for j := len(dst) - 1; j >= wsh; j-- {
			dst[j] |= src[j-wsh]
		}
		return
	}
	for j := len(dst) - 1; j >= wsh; j-- {
		v := src[j-wsh] << bsh
		if j-wsh-1 >= 0 {
			v |= src[j-wsh-1] >> (64 - bsh)
		}
		dst[j] |= v
	}
}

// orShiftRight ORs src shifted k bits towards lower x into dst. Row
// padding in src is zero, so no stray bits enter from the end.
func orShiftRight(dst, src []uint64, k int) {
	wsh, bsh := k>>6, uint(k&63)
	n := len(dst)
	if bsh == 0 {
		for j := 0; j+wsh < n; j++ {
			dst[j] |= src[j+wsh]
		}
		return
	}
	for j := 0; j+wsh < n; j++ {
		v := src[j+wsh] >> bsh
		if j+wsh+1 < n {
			v |= src[j+wsh+1] << (64 - bsh)
		}
		dst[j] |= v
	}
}

// isqrt returns ⌊√n⌋ for small non-negative n (n ≤ radius²).
func isqrt(n int) int {
	x := 0
	for (x+1)*(x+1) <= n {
		x++
	}
	return x
}

func absI(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

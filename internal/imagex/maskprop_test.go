package imagex

// Property tests pinning the word-packed bitset Mask to a reference
// []bool implementation — the representation the repo used before the
// bitset rewrite. Every operation pair must stay bit-identical on
// randomized inputs, including widths that are not multiples of 64
// (edge-word masking) and widths spanning several words.

import (
	"math/rand"
	"testing"
)

// boolMask is the reference implementation.
type boolMask struct {
	w, h int
	bits []bool
}

func newBoolMask(w, h int) *boolMask {
	return &boolMask{w: w, h: h, bits: make([]bool, w*h)}
}

func (b *boolMask) in(x, y int) bool { return x >= 0 && x < b.w && y >= 0 && y < b.h }

func (b *boolMask) at(x, y int) bool {
	if !b.in(x, y) {
		return false
	}
	return b.bits[y*b.w+x]
}

func (b *boolMask) clone() *boolMask {
	out := newBoolMask(b.w, b.h)
	copy(out.bits, b.bits)
	return out
}

func (b *boolMask) count() int {
	n := 0
	for _, v := range b.bits {
		if v {
			n++
		}
	}
	return n
}

func (b *boolMask) union(o *boolMask) {
	for i, v := range o.bits {
		if v {
			b.bits[i] = true
		}
	}
}

func (b *boolMask) subtract(o *boolMask) {
	for i, v := range o.bits {
		if v {
			b.bits[i] = false
		}
	}
}

func (b *boolMask) intersect(o *boolMask) {
	for i, v := range o.bits {
		if !v {
			b.bits[i] = false
		}
	}
}

func (b *boolMask) xor(o *boolMask) {
	for i, v := range o.bits {
		b.bits[i] = b.bits[i] != v
	}
}

func (b *boolMask) invert() {
	for i := range b.bits {
		b.bits[i] = !b.bits[i]
	}
}

func (b *boolMask) overlap(o *boolMask) int {
	n := 0
	for i := range b.bits {
		if b.bits[i] && o.bits[i] {
			n++
		}
	}
	return n
}

func refDiscOffsets(r int) [][2]int {
	var offs [][2]int
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			if dx*dx+dy*dy <= r*r {
				offs = append(offs, [2]int{dx, dy})
			}
		}
	}
	return offs
}

// dilate is the seed repo's O(set-bits × disc-area) offset scatter.
func (b *boolMask) dilate(r int) *boolMask {
	if r <= 0 {
		return b.clone()
	}
	offs := refDiscOffsets(r)
	out := newBoolMask(b.w, b.h)
	for y := 0; y < b.h; y++ {
		for x := 0; x < b.w; x++ {
			if !b.bits[y*b.w+x] {
				continue
			}
			for _, o := range offs {
				nx, ny := x+o[0], y+o[1]
				if out.in(nx, ny) {
					out.bits[ny*b.w+nx] = true
				}
			}
		}
	}
	return out
}

func (b *boolMask) boundary() *boolMask {
	out := newBoolMask(b.w, b.h)
	for y := 0; y < b.h; y++ {
		for x := 0; x < b.w; x++ {
			if !b.bits[y*b.w+x] {
				continue
			}
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if dx == 0 && dy == 0 {
						continue
					}
					if !b.at(x+dx, y+dy) {
						out.bits[y*b.w+x] = true
					}
				}
			}
		}
	}
	return out
}

func sameBits(t *testing.T, label string, m *Mask, ref *boolMask) {
	t.Helper()
	if m.W != ref.w || m.H != ref.h {
		t.Fatalf("%s: geometry %dx%d vs %dx%d", label, m.W, m.H, ref.w, ref.h)
	}
	for y := 0; y < ref.h; y++ {
		for x := 0; x < ref.w; x++ {
			if m.At(x, y) != ref.at(x, y) {
				t.Fatalf("%s: bit (%d,%d) = %v, reference %v (w=%d h=%d)",
					label, x, y, m.At(x, y), ref.at(x, y), ref.w, ref.h)
			}
		}
	}
	if m.Count() != ref.count() {
		t.Fatalf("%s: Count = %d, reference %d", label, m.Count(), ref.count())
	}
	// ForEachSet must visit exactly the set indices, ascending.
	last := -1
	n := 0
	m.ForEachSet(func(i int) {
		if i <= last {
			t.Fatalf("%s: ForEachSet order violated: %d after %d", label, i, last)
		}
		if !ref.bits[i] {
			t.Fatalf("%s: ForEachSet visited clear index %d", label, i)
		}
		last = i
		n++
	})
	if n != ref.count() {
		t.Fatalf("%s: ForEachSet visited %d bits, want %d", label, n, ref.count())
	}
}

// propGeometries covers one-word, exact-word, word+1 and multi-word row
// widths plus degenerate single-row/column masks.
var propGeometries = [][2]int{
	{1, 1}, {1, 9}, {9, 1},
	{7, 5}, {63, 3}, {64, 3}, {65, 3},
	{127, 4}, {128, 4}, {130, 6}, {160, 120},
}

func randomPair(r *rand.Rand, w, h int, density float64) (*Mask, *boolMask) {
	m := NewMask(w, h)
	ref := newBoolMask(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if r.Float64() < density {
				m.Set(x, y, true)
				ref.bits[y*w+x] = true
			}
		}
	}
	return m, ref
}

func TestBitsetMatchesReferenceSetOps(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, g := range propGeometries {
		w, h := g[0], g[1]
		for trial := 0; trial < 4; trial++ {
			density := []float64{0, 0.05, 0.5, 1}[trial]
			a, refA := randomPair(r, w, h, density)
			b, refB := randomPair(r, w, h, r.Float64())

			u := a.Clone()
			if err := u.Union(b); err != nil {
				t.Fatal(err)
			}
			refU := refA.clone()
			refU.union(refB)
			sameBits(t, "union", u, refU)

			s := a.Clone()
			if err := s.Subtract(b); err != nil {
				t.Fatal(err)
			}
			refS := refA.clone()
			refS.subtract(refB)
			sameBits(t, "subtract", s, refS)

			in := a.Clone()
			if err := in.Intersect(b); err != nil {
				t.Fatal(err)
			}
			refI := refA.clone()
			refI.intersect(refB)
			sameBits(t, "intersect", in, refI)

			x := a.Clone()
			if err := x.Xor(b); err != nil {
				t.Fatal(err)
			}
			refX := refA.clone()
			refX.xor(refB)
			sameBits(t, "xor", x, refX)

			inv := a.Clone()
			inv.Invert()
			refInv := refA.clone()
			refInv.invert()
			sameBits(t, "invert", inv, refInv)

			if got, want := a.Overlap(b), refA.overlap(refB); got != want {
				t.Fatalf("overlap %dx%d = %d, reference %d", w, h, got, want)
			}
			if got, want := a.Equal(b), refA.overlap(refB) == refA.count() && refA.count() == refB.count(); got && !want {
				t.Fatalf("equal %dx%d: bitset claims equality, reference disagrees", w, h)
			}
			sameBits(t, "identity", a, refA)
		}
	}
}

func TestBitsetMatchesReferenceMorphology(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, g := range propGeometries {
		w, h := g[0], g[1]
		for _, radius := range []int{0, 1, 2, 3, 5, 9} {
			m, ref := randomPair(r, w, h, 0.12)

			sameBits(t, "dilate", m.Dilate(radius), ref.dilate(radius))
		}
		m, ref := randomPair(r, w, h, 0.3)
		sameBits(t, "boundary", m.Boundary(), ref.boundary())
	}
}

// TestBitsetMatchesReferenceFullMask exercises NewFullMask and its
// double inversion, checking padding-bit integrity.
func TestBitsetMatchesReferenceFullMask(t *testing.T) {
	for _, g := range propGeometries {
		w, h := g[0], g[1]
		full := NewFullMask(w, h)
		if full.Count() != w*h {
			t.Fatalf("NewFullMask(%d,%d).Count = %d", w, h, full.Count())
		}
		full.Invert()
		if full.Count() != 0 {
			t.Fatalf("inverted full mask not empty at %dx%d", w, h)
		}
		full.Invert()
		if full.Count() != w*h {
			t.Fatalf("double inversion lost bits at %dx%d", w, h)
		}
	}
}

func TestBitsetSetSpanMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, g := range propGeometries {
		w, h := g[0], g[1]
		m := NewMask(w, h)
		ref := newBoolMask(w, h)
		for trial := 0; trial < 32; trial++ {
			y := r.Intn(h+4) - 2
			x0 := r.Intn(w+8) - 4
			x1 := r.Intn(w+8) - 4
			m.SetSpan(y, x0, x1)
			for x := maxI2(x0, 0); x < x1 && x < w; x++ {
				if y >= 0 && y < h {
					ref.bits[y*w+x] = true
				}
			}
		}
		sameBits(t, "setspan", m, ref)
	}
}

func TestGetISetIRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, g := range propGeometries {
		w, h := g[0], g[1]
		m := NewMask(w, h)
		ref := newBoolMask(w, h)
		for trial := 0; trial < 64; trial++ {
			i := r.Intn(w * h)
			v := r.Intn(2) == 0
			m.SetI(i, v)
			ref.bits[i] = v
		}
		for i := 0; i < w*h; i++ {
			if m.GetI(i) != ref.bits[i] {
				t.Fatalf("GetI(%d) = %v, want %v at %dx%d", i, m.GetI(i), ref.bits[i], w, h)
			}
		}
	}
}

func maxI2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestMatchMaskIntoMatchesWithinTol pins the match kernel to BuildMask
// over the scalar WithinTol predicate. The widths hit every row-tail
// length mod 8 (the scalar finish after the last 8-pixel group) and mod
// 64 (the partial last word), and the tolerances run from "nothing"
// (-1) through both sides of the 16-bit lane midpoint to the clamp
// (256). Channel differences are drawn around ±tol so the boundary
// |d| = tol, tol+1 is hit at every tolerance. The destination starts
// with every word set, padding included, so the kernel must overwrite
// all of it and leave the padding clear.
func TestMatchMaskIntoMatchesWithinTol(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var widths []int
	for w := 1; w <= 17; w++ {
		widths = append(widths, w)
	}
	for w := 63; w <= 73; w++ {
		widths = append(widths, w)
	}
	widths = append(widths, 130, 160, 320)
	for _, w := range widths {
		const h = 3
		for _, tol := range []int{-1, 0, 1, 14, 127, 128, 200, 254, 255, 256} {
			a, b := New(w, h), New(w, h)
			near := func(c uint8) uint8 {
				var d int
				switch rng.Intn(4) {
				case 0:
					return uint8(rng.Intn(256))
				case 1:
					d = rng.Intn(9) - 4
				default:
					d = tol + rng.Intn(2)
					if rng.Intn(2) == 0 {
						d = -d
					}
				}
				return uint8(min(max(int(c)+d, 0), 255))
			}
			for i := range a.Pix {
				a.Pix[i] = RGB{uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))}
				b.Pix[i] = RGB{near(a.Pix[i].R), near(a.Pix[i].G), near(a.Pix[i].B)}
			}
			want := BuildMask(w, h, func(i int) bool { return WithinTol(a.Pix[i], b.Pix[i], tol) })
			dst := NewMask(w, h)
			for i := range dst.words {
				dst.words[i] = ^uint64(0)
			}
			got := MatchMaskInto(dst, a, b, tol)
			if got != dst {
				t.Fatalf("w=%d tol=%d: a correctly sized dst was not reused", w, tol)
			}
			if !got.Equal(want) {
				t.Fatalf("w=%d tol=%d: MatchMaskInto differs from BuildMask(WithinTol): %d vs %d bits",
					w, tol, got.Count(), want.Count())
			}
			edge := edgeMask(w)
			wpr := wordsPerRow(w)
			for y := 0; y < h; y++ {
				if got.words[y*wpr+wpr-1]&^edge != 0 {
					t.Fatalf("w=%d tol=%d: padding bits set in row %d", w, tol, y)
				}
			}
			if n, ref := got.Count(), countWithinTol(a, b, tol); n != ref {
				t.Fatalf("w=%d tol=%d: MatchMaskInto counts %d bits, want %d", w, tol, n, ref)
			}
		}
	}
}

// TestMatchKernelEqualGroups aims at the kernel's whole-group equality
// shortcut: groups whose 24 bytes are equal, or equal but for one byte
// at each of the 24 group offsets in turn, that byte differing by
// exactly tol or tol+1 in either direction. Row 0 is all equal, rows 1
// and 2 move the byte up and down in every group, and row 3 mixes the
// three per group, so equal groups sit beside groups that must take the
// lane test. Widths 1-130 cover whole groups, partial last words and row
// tails, which apply the same per-offset pattern to their pixels.
func TestMatchKernelEqualGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const h = 4
	for w := 1; w <= 130; w++ {
		dst := NewMask(w, h)
		for _, tol := range []int{0, 1, 254, 255} {
			for j := 0; j < 24; j++ {
				for _, d := range []int{tol, tol + 1} {
					if d > 255 {
						continue
					}
					a, b := New(w, h), New(w, h)
					for i := range a.Pix {
						a.Pix[i] = RGB{uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))}
						b.Pix[i] = a.Pix[i]
					}
					for y := 1; y < h; y++ {
						for x := j / 3; x < w; x += 8 {
							sign := [...]int{0, 1, -1, rng.Intn(3) - 1}[y]
							if sign == 0 {
								continue
							}
							i := y*w + x
							ca := [...]*uint8{&a.Pix[i].R, &a.Pix[i].G, &a.Pix[i].B}[j%3]
							cb := [...]*uint8{&b.Pix[i].R, &b.Pix[i].G, &b.Pix[i].B}[j%3]
							lo := uint8(rng.Intn(256 - d))
							*ca, *cb = lo, lo+uint8(d)
							if sign < 0 {
								*ca, *cb = *cb, *ca
							}
						}
					}
					want := BuildMask(w, h, func(i int) bool { return WithinTol(a.Pix[i], b.Pix[i], tol) })
					if got := MatchMaskInto(dst, a, b, tol); !got.Equal(want) {
						t.Fatalf("w=%d tol=%d byte %d off by %d: MatchMaskInto differs from BuildMask(WithinTol): %d vs %d bits",
							w, tol, j, d, got.Count(), want.Count())
					}
				}
			}
		}
	}
}

// countWithinTol is the scalar reference for the popcount of
// MatchMaskInto: the pixels that are WithinTol.
func countWithinTol(a, b *Image, tol int) int {
	n := 0
	for i := range a.Pix {
		if WithinTol(a.Pix[i], b.Pix[i], tol) {
			n++
		}
	}
	return n
}

// TestMatchKernelAllBytePairs runs every (a, b) byte pair through the
// match kernel at each of the 24 byte offsets of an 8-pixel group, that
// is at every channel of every pixel position the word kernel packs into
// its three 64-bit words. One image pair per channel c carries a pair in
// channel c of every pixel, with the pixel's other channels equal so the
// pair decides its bit. Pixel p of group g gets pair (g + 8191p) mod
// 65536, so each position sees all 65536 pairs and its neighbours in the
// group hold unrelated pairs: a carry leaking across a 16-bit lane or a
// byte lost at a word boundary shows up as a wrong bit.
func TestMatchKernelAllBytePairs(t *testing.T) {
	const w, h = 512, 1024 // 64 groups per row, 65536 groups
	rng := rand.New(rand.NewSource(29))
	a, b := New(w, h), New(w, h)
	dst := NewMask(w, h)
	for c := 0; c < 3; c++ {
		channel := func(p *RGB) *uint8 { return [...]*uint8{&p.R, &p.G, &p.B}[c] }
		for i := range a.Pix {
			pair := (i/8 + 8191*(i%8)) % 65536
			a.Pix[i] = RGB{uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))}
			b.Pix[i] = a.Pix[i]
			*channel(&a.Pix[i]), *channel(&b.Pix[i]) = uint8(pair>>8), uint8(pair)
		}
		for _, tol := range []int{0, 1, 14, 127, 128, 254, 255} {
			got := MatchMaskInto(dst, a, b, tol)
			for i := range a.Pix {
				if want := WithinTol(a.Pix[i], b.Pix[i], tol); got.GetI(i) != want {
					t.Fatalf("channel %d pixel %d of its group, tol %d (%v vs %v): kernel %v, WithinTol %v",
						c, i%8, tol, a.Pix[i], b.Pix[i], got.GetI(i), want)
				}
			}
		}
	}
}

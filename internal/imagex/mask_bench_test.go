package imagex

import (
	"fmt"
	"math/rand"
	"testing"
)

// Bench geometry matches the paper-scale frame the reconstruction hot
// path processes (1280×720 is the calibrated Zoom geometry; the
// simulator default 160×120 is covered by the small variant).
const (
	benchW = 1280
	benchH = 720
)

func benchMaskPair(seed int64, w, h int) (*Mask, *Mask) {
	r := rand.New(rand.NewSource(seed))
	a, b := NewMask(w, h), NewMask(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if r.Intn(2) == 0 {
				a.Set(x, y, true)
			}
			if r.Intn(2) == 0 {
				b.Set(x, y, true)
			}
		}
	}
	return a, b
}

// benchSilhouette builds a blobby mask that resembles a caller
// silhouette: dense interior, irregular boundary. Dilate cost depends on
// the set-bit population, so a realistic shape matters.
func benchSilhouette(w, h int) *Mask {
	m := NewMask(w, h)
	cx, cy := w/2, h/2
	rx, ry := w/5, h/3
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			dx, dy := float64(x-cx)/float64(rx), float64(y-cy)/float64(ry)
			if dx*dx+dy*dy <= 1 {
				m.Set(x, y, true)
			}
		}
	}
	return m
}

func BenchmarkMaskOpsUnion(b *testing.B) {
	x, y := benchMaskPair(1, benchW, benchH)
	dst := x.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dst.Union(y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaskOpsSubtract(b *testing.B) {
	x, y := benchMaskPair(2, benchW, benchH)
	dst := x.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dst.Subtract(y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaskOpsIntersect(b *testing.B) {
	x, y := benchMaskPair(3, benchW, benchH)
	dst := x.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dst.Intersect(y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaskOpsCount(b *testing.B) {
	x, _ := benchMaskPair(4, benchW, benchH)
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n += x.Count()
	}
	_ = n
}

func BenchmarkMaskOpsOverlap(b *testing.B) {
	x, y := benchMaskPair(5, benchW, benchH)
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n += x.Overlap(y)
	}
	_ = n
}

func BenchmarkMaskOpsEqual(b *testing.B) {
	x, _ := benchMaskPair(6, benchW, benchH)
	y := x.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !x.Equal(y) {
			b.Fatal("clones must be equal")
		}
	}
}

func BenchmarkMaskOpsInvert(b *testing.B) {
	x, _ := benchMaskPair(7, benchW, benchH)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Invert()
	}
}

// Dilate at the paper's calibrated Zoom blur radius (φ = 20 at
// 1280×720) — the single hottest call of the reconstruction loop.
func BenchmarkMaskOpsDilatePhi20(b *testing.B) {
	m := benchSilhouette(benchW, benchH)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Dilate(20)
	}
}

// Dilate at the simulator-scale radius (φ = 3 at 160×120).
func BenchmarkMaskOpsDilateSim(b *testing.B) {
	m := benchSilhouette(160, 120)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Dilate(3)
	}
}

func BenchmarkMaskOpsBoundary(b *testing.B) {
	m := benchSilhouette(benchW, benchH)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Boundary()
	}
}

// BenchmarkMatchMask builds one VB match mask between a frame and a
// virtual image at the live workloads' frame size (320x240) and the
// meeting workload's gallery tile size (160x120). The composed frame is
// the VB outside a filled person shape, the steady state of a call. The
// random pair agrees on about half the pixels but almost never on a
// whole 8-pixel group, so it bounds what the kernel's group equality
// check costs on data that never matches exactly.
func BenchmarkMatchMask(b *testing.B) {
	for _, pair := range []struct {
		name string
		make func(w, h int) (frame, vb *Image)
	}{{"composed", benchComposedPair}, {"random", benchMatchPair}} {
		for _, sz := range []struct{ w, h int }{{320, 240}, {160, 120}} {
			b.Run(fmt.Sprintf("%s/%dx%d", pair.name, sz.w, sz.h), func(b *testing.B) {
				frame, vb := pair.make(sz.w, sz.h)
				dst := NewMask(sz.w, sz.h)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					MatchMaskInto(dst, frame, vb, 6)
				}
			})
		}
	}
}

// BenchmarkMatchCount scores one 320x240 frame against a virtual image
// with the exact-equality count (known-image identification).
func BenchmarkMatchCount(b *testing.B) {
	frame, vb := benchMatchPair(320, 240)
	b.Run("exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frame.MatchCount(vb)
		}
	})
}

// benchMatchPair returns a random virtual image and a frame equal to it
// except for a flipped green bit on about half the pixels.
func benchMatchPair(w, h int) (frame, vb *Image) {
	r := rand.New(rand.NewSource(5))
	frame, vb = New(w, h), New(w, h)
	for i := range frame.Pix {
		vb.Pix[i] = RGB{uint8(r.Intn(256)), uint8(r.Intn(256)), uint8(r.Intn(256))}
		frame.Pix[i] = vb.Pix[i]
		if r.Intn(2) == 0 {
			frame.Pix[i].G ^= 0x40
		}
	}
	return frame, vb
}

// benchComposedPair returns a random virtual image and a frame equal to
// it outside a person shape (benchPerson) filled with random pixels.
func benchComposedPair(w, h int) (frame, vb *Image) {
	r := rand.New(rand.NewSource(6))
	frame, vb = New(w, h), New(w, h)
	person := benchPerson(w, h)
	for i := range frame.Pix {
		vb.Pix[i] = RGB{uint8(r.Intn(256)), uint8(r.Intn(256)), uint8(r.Intn(256))}
		frame.Pix[i] = vb.Pix[i]
		if person.GetI(i) {
			frame.Pix[i] = RGB{uint8(r.Intn(256)), uint8(r.Intn(256)), uint8(r.Intn(256))}
		}
	}
	return frame, vb
}

// benchPerson returns a filled head-and-shoulders shape covering about
// 40% of a w×h frame: a disc of radius h/6 over a torso that spans the
// middle 60% of the columns from 45% of the height to the bottom edge.
// About 60% of the 8-pixel row groups lie wholly outside it.
func benchPerson(w, h int) *Mask {
	m := NewMask(w, h)
	cx, cy, r := w/2, 3*h/10, h/6
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			dx, dy := x-cx, y-cy
			torso := y >= 9*h/20 && x >= w/5 && x < 4*w/5
			m.Set(x, y, torso || dx*dx+dy*dy <= r*r)
		}
	}
	return m
}

package imagex

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDimensionsAndBlack(t *testing.T) {
	im := New(7, 3)
	if im.W != 7 || im.H != 3 || len(im.Pix) != 21 {
		t.Fatalf("unexpected geometry: %dx%d len=%d", im.W, im.H, len(im.Pix))
	}
	for i, p := range im.Pix {
		if p != Black {
			t.Fatalf("pixel %d not black: %v", i, p)
		}
	}
}

func TestNewPanicsOnInvalidSize(t *testing.T) {
	for _, dims := range [][2]int{{0, 5}, {5, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			New(dims[0], dims[1])
		}()
	}
}

func TestNewFilled(t *testing.T) {
	c := RGB{10, 20, 30}
	im := NewFilled(4, 4, c)
	for _, p := range im.Pix {
		if p != c {
			t.Fatalf("pixel %v, want %v", p, c)
		}
	}
}

func TestAtSetBounds(t *testing.T) {
	im := New(3, 3)
	im.Set(1, 1, White)
	if im.At(1, 1) != White {
		t.Fatal("Set/At round trip failed")
	}
	if im.At(-1, 0) != Black || im.At(3, 0) != Black || im.At(0, 3) != Black {
		t.Fatal("out-of-bounds At must return Black")
	}
	im.Set(-1, -1, White) // must not panic
	im.Set(99, 99, White)
}

func TestCloneIsDeep(t *testing.T) {
	a := NewFilled(2, 2, RGB{1, 1, 1})
	b := a.Clone()
	b.Set(0, 0, White)
	if a.At(0, 0) == White {
		t.Fatal("Clone shares pixel storage")
	}
	if !a.Equal(a.Clone()) {
		t.Fatal("clone not equal to source")
	}
}

func TestEqualDifferentSizes(t *testing.T) {
	if New(2, 3).Equal(New(3, 2)) {
		t.Fatal("images of different shapes compared equal")
	}
}

func TestCopyFrom(t *testing.T) {
	src := NewFilled(2, 2, RGB{9, 9, 9})
	dst := New(2, 2)
	if err := dst.CopyFrom(src); err != nil {
		t.Fatalf("CopyFrom: %v", err)
	}
	if !dst.Equal(src) {
		t.Fatal("CopyFrom did not copy pixels")
	}
	if err := dst.CopyFrom(New(3, 3)); !errors.Is(err, ErrBounds) {
		t.Fatalf("size mismatch error = %v, want ErrBounds", err)
	}
}

func TestMatchCount(t *testing.T) {
	a := NewFilled(4, 1, RGB{5, 5, 5})
	b := a.Clone()
	if got := a.MatchCount(b); got != 4 {
		t.Fatalf("MatchCount = %d, want 4", got)
	}
	b.Set(0, 0, White)
	if got := a.MatchCount(b); got != 3 {
		t.Fatalf("MatchCount = %d, want 3", got)
	}
	if got := a.MatchCount(New(2, 2)); got != 0 {
		t.Fatalf("size-mismatched MatchCount = %d, want 0", got)
	}
}

func TestDiffMask(t *testing.T) {
	a := NewFilled(3, 1, RGB{50, 50, 50})
	b := a.Clone()
	b.Set(2, 0, RGB{90, 50, 50})
	m, err := a.DiffMask(b, 10)
	if err != nil {
		t.Fatalf("DiffMask: %v", err)
	}
	if m.Count() != 1 || !m.At(2, 0) {
		t.Fatalf("diff mask wrong: count=%d", m.Count())
	}
	if _, err := a.DiffMask(New(1, 1), 0); !errors.Is(err, ErrBounds) {
		t.Fatalf("size mismatch = %v, want ErrBounds", err)
	}
}

func TestApplyRemoveMaskPartition(t *testing.T) {
	im := NewFilled(4, 4, RGB{7, 8, 9})
	m := NewMask(4, 4)
	m.Set(1, 1, true)
	m.Set(2, 3, true)

	kept := im.ApplyMask(m)
	removed := im.RemoveMask(m)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			if m.At(x, y) {
				if kept.At(x, y) != im.At(x, y) || removed.At(x, y) != Black {
					t.Fatalf("masked pixel (%d,%d) wrong", x, y)
				}
			} else {
				if kept.At(x, y) != Black || removed.At(x, y) != im.At(x, y) {
					t.Fatalf("unmasked pixel (%d,%d) wrong", x, y)
				}
			}
		}
	}
}

func TestApplyMaskSizeMismatchIsBlack(t *testing.T) {
	im := NewFilled(2, 2, White)
	out := im.ApplyMask(NewFullMask(3, 3))
	for _, p := range out.Pix {
		if p != Black {
			t.Fatal("mismatched ApplyMask must yield black image")
		}
	}
}

func TestScaleBrightness(t *testing.T) {
	im := NewFilled(1, 1, RGB{100, 200, 40})
	im.ScaleBrightness(0.5)
	if got := im.At(0, 0); got != (RGB{50, 100, 20}) {
		t.Fatalf("half brightness = %v", got)
	}
	im.ScaleBrightness(100)
	if got := im.At(0, 0); got != White {
		t.Fatalf("overdriven brightness must clamp to white, got %v", got)
	}
}

func TestLerpEndpoints(t *testing.T) {
	a, b := RGB{0, 0, 0}, RGB{200, 100, 50}
	if Lerp(a, b, 0) != a || Lerp(a, b, 1) != b {
		t.Fatal("Lerp endpoints wrong")
	}
	mid := Lerp(a, b, 0.5)
	if mid.R != 100 || mid.G != 50 || mid.B != 25 {
		t.Fatalf("Lerp midpoint = %v", mid)
	}
	if Lerp(a, b, -3) != a || Lerp(a, b, 7) != b {
		t.Fatal("Lerp must clamp t")
	}
}

func TestPropertyMatchCountSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomImage(r, 8, 6), randomImage(r, 8, 6)
		return a.MatchCount(b) == b.MatchCount(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySelfMatchIsTotal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomImage(r, 5, 9)
		return a.MatchCount(a) == a.W*a.H
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func randomImage(r *rand.Rand, w, h int) *Image {
	im := New(w, h)
	for i := range im.Pix {
		im.Pix[i] = RGB{uint8(r.Intn(256)), uint8(r.Intn(256)), uint8(r.Intn(256))}
	}
	return im
}

package imagex

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomMask(r *rand.Rand, w, h int) *Mask {
	m := NewMask(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			m.Set(x, y, r.Intn(2) == 0)
		}
	}
	return m
}

func TestMaskCountFraction(t *testing.T) {
	m := NewMask(4, 4)
	if m.Count() != 0 || m.Fraction() != 0 {
		t.Fatal("fresh mask must be empty")
	}
	m.Set(0, 0, true)
	m.Set(3, 3, true)
	if m.Count() != 2 {
		t.Fatalf("Count = %d, want 2", m.Count())
	}
	if m.Fraction() != 2.0/16 {
		t.Fatalf("Fraction = %v", m.Fraction())
	}
	full := NewFullMask(3, 2)
	if full.Count() != 6 || full.Fraction() != 1 {
		t.Fatal("NewFullMask wrong")
	}
}

// TestNewMasks checks that the masks cut from one slab start clear,
// stay independent up to their row padding, and cost two allocations
// whatever their number.
func TestNewMasks(t *testing.T) {
	ms := NewMasks(70, 3, 4)
	if len(ms) != 4 {
		t.Fatalf("got %d masks, want 4", len(ms))
	}
	for i := range ms {
		if ms[i].W != 70 || ms[i].H != 3 || ms[i].Count() != 0 {
			t.Fatalf("mask %d: %dx%d with %d set, want an empty 70x3", i, ms[i].W, ms[i].H, ms[i].Count())
		}
	}
	ms[1].Invert()
	ms[2].SetWord(2, 1, ^uint64(0))
	if ms[0].Count() != 0 || ms[1].Count() != 210 || ms[2].Count() != 6 || ms[3].Count() != 0 {
		t.Fatalf("counts %d/%d/%d/%d, want 0/210/6/0", ms[0].Count(), ms[1].Count(), ms[2].Count(), ms[3].Count())
	}
	if a := testing.AllocsPerRun(4, func() { NewMasks(70, 3, 100) }); a != 2 {
		t.Fatalf("NewMasks allocates %.0f objects, want 2", a)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a zero width must panic")
		}
	}()
	NewMasks(0, 3, 1)
}

func TestMaskSetAtBounds(t *testing.T) {
	m := NewMask(2, 2)
	m.Set(-1, 0, true)
	m.Set(5, 5, true)
	if m.Count() != 0 {
		t.Fatal("out-of-bounds Set must be ignored")
	}
	if m.At(-1, 0) || m.At(2, 0) {
		t.Fatal("out-of-bounds At must be false")
	}
}

func TestMaskUnionSubtractIntersect(t *testing.T) {
	a := NewMask(3, 1)
	a.Set(0, 0, true)
	b := NewMask(3, 1)
	b.Set(1, 0, true)

	u := a.Clone()
	if err := u.Union(b); err != nil {
		t.Fatal(err)
	}
	if u.Count() != 2 {
		t.Fatalf("union count = %d", u.Count())
	}

	s := u.Clone()
	if err := s.Subtract(a); err != nil {
		t.Fatal(err)
	}
	if s.Count() != 1 || !s.At(1, 0) {
		t.Fatal("subtract wrong")
	}

	i := u.Clone()
	if err := i.Intersect(a); err != nil {
		t.Fatal(err)
	}
	if i.Count() != 1 || !i.At(0, 0) {
		t.Fatal("intersect wrong")
	}

	if err := a.Union(NewMask(9, 9)); !errors.Is(err, ErrBounds) {
		t.Fatalf("union size mismatch = %v", err)
	}
	if err := a.Subtract(NewMask(9, 9)); !errors.Is(err, ErrBounds) {
		t.Fatalf("subtract size mismatch = %v", err)
	}
	if err := a.Intersect(NewMask(9, 9)); !errors.Is(err, ErrBounds) {
		t.Fatalf("intersect size mismatch = %v", err)
	}
}

func TestMaskInvert(t *testing.T) {
	m := NewMask(2, 2)
	m.Set(0, 0, true)
	m.Invert()
	if m.Count() != 3 || m.At(0, 0) {
		t.Fatal("invert wrong")
	}
}

func TestDilateContainsSourceAndRespectRadius(t *testing.T) {
	m := NewMask(21, 21)
	m.Set(10, 10, true)
	d := m.Dilate(3)
	if !d.At(10, 10) {
		t.Fatal("dilation must contain source")
	}
	if !d.At(13, 10) || !d.At(10, 7) {
		t.Fatal("dilation must reach radius along axes")
	}
	if d.At(13, 13) {
		t.Fatal("dilation must not exceed Euclidean radius (3,3) for r=3")
	}
	// Disc area for r=3: all dx,dy with dx²+dy² ≤ 9 → 29 pixels.
	if d.Count() != 29 {
		t.Fatalf("disc pixel count = %d, want 29", d.Count())
	}
}

func TestDilateZeroRadiusIsClone(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	m := randomMask(r, 6, 6)
	if !m.Dilate(0).Equal(m) {
		t.Fatal("radius-0 dilation must equal source")
	}
}

func TestBoundary(t *testing.T) {
	m := NewMask(5, 5)
	m.FillRectMask(1, 1, 4, 4)
	b := m.Boundary()
	if b.At(2, 2) {
		t.Fatal("interior pixel must not be boundary")
	}
	if !b.At(1, 1) || !b.At(3, 3) || !b.At(1, 3) {
		t.Fatal("rim pixels must be boundary")
	}
	if b.Count() != 8 {
		t.Fatalf("3x3 block boundary = %d pixels, want 8", b.Count())
	}
}

// FillRectMask is a tiny helper for tests only.
func (m *Mask) FillRectMask(x0, y0, x1, y1 int) {
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			m.Set(x, y, true)
		}
	}
}

func TestOverlapDisjoint(t *testing.T) {
	a := NewMask(3, 1)
	a.Set(0, 0, true)
	b := NewMask(3, 1)
	b.Set(2, 0, true)
	if a.Overlap(b) != 0 {
		t.Fatal("expected disjoint")
	}
	b.Set(0, 0, true)
	if a.Overlap(b) != 1 {
		t.Fatal("expected overlap of 1")
	}
	if a.Overlap(NewMask(2, 2)) != 0 {
		t.Fatal("size mismatch overlap must be 0")
	}
}

func TestToImage(t *testing.T) {
	m := NewMask(2, 1)
	m.Set(1, 0, true)
	im := m.ToImage()
	if im.At(0, 0) != Black || im.At(1, 0) != White {
		t.Fatal("ToImage wrong")
	}
}

func TestPropertyDilateMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomMask(r, 12, 12)
		d1 := m.Dilate(1)
		d2 := m.Dilate(2)
		// d1 ⊆ d2 and m ⊆ d1.
		for i := 0; i < m.Len(); i++ {
			if m.GetI(i) && !d1.GetI(i) {
				return false
			}
			if d1.GetI(i) && !d2.GetI(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySubtractDisjoint(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomMask(r, 10, 10)
		b := randomMask(r, 10, 10)
		res := a.Clone()
		if err := res.Subtract(b); err != nil {
			return false
		}
		return res.Overlap(b) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyUnionCardinality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomMask(r, 10, 10)
		b := randomMask(r, 10, 10)
		u := a.Clone()
		if err := u.Union(b); err != nil {
			return false
		}
		// |A ∪ B| = |A| + |B| − |A ∩ B|
		return u.Count() == a.Count()+b.Count()-a.Overlap(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

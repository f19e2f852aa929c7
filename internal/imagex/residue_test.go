package imagex

import (
	"math/rand"
	"testing"
)

func randMask(rng *rand.Rand, w, h int, density float64) *Mask {
	m := NewMask(w, h)
	for i := 0; i < w*h; i++ {
		if rng.Float64() < density {
			m.SetI(i, true)
		}
	}
	return m
}

func randImage(rng *rand.Rand, w, h int) *Image {
	img := New(w, h)
	for i := range img.Pix {
		img.Pix[i] = RGB{R: byte(rng.Intn(256)), G: byte(rng.Intn(256)), B: byte(rng.Intn(256))}
	}
	return img
}

func TestBands(t *testing.T) {
	cases := []struct{ h, rows, want int }{
		{1, 8, 1}, {8, 8, 1}, {9, 8, 2}, {120, 8, 15}, {121, 8, 16},
		{5, 0, 0}, {5, -1, 0}, {7, 3, 3},
	}
	for _, c := range cases {
		if got := Bands(c.h, c.rows); got != c.want {
			t.Errorf("Bands(%d, %d) = %d, want %d", c.h, c.rows, got, c.want)
		}
	}
}

func TestComplementOfUnionMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dim := range [][2]int{{64, 16}, {37, 23}, {1, 1}, {130, 9}} {
		w, h := dim[0], dim[1]
		a := randMask(rng, w, h, 0.3)
		b := randMask(rng, w, h, 0.3)
		nonEmpty := make([]bool, Bands(h, 8))
		m := NewFullMask(w, h) // pre-dirty: every word must be overwritten
		if err := m.ComplementOfUnion(a, b, 8, nonEmpty); err != nil {
			t.Fatal(err)
		}
		bandHasBit := make([]bool, len(nonEmpty))
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				want := !(a.At(x, y) || b.At(x, y))
				if m.At(x, y) != want {
					t.Fatalf("%dx%d: (%d,%d) = %v, want %v", w, h, x, y, m.At(x, y), want)
				}
				if want {
					bandHasBit[y/8] = true
				}
			}
		}
		for i, want := range bandHasBit {
			if nonEmpty[i] != want {
				t.Fatalf("%dx%d: band %d nonEmpty = %v, want %v", w, h, i, nonEmpty[i], want)
			}
		}
		// The padding invariant must hold so Count and friends stay exact.
		if m.Count() != countNaive(m) {
			t.Fatalf("%dx%d: padding bits leaked into the complement", w, h)
		}
	}
}

func countNaive(m *Mask) int {
	n := 0
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			if m.At(x, y) {
				n++
			}
		}
	}
	return n
}

func TestComplementOfUnionErrors(t *testing.T) {
	m := NewMask(10, 10)
	if err := m.ComplementOfUnion(NewMask(9, 10), NewMask(10, 10), 8, nil); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
	if err := m.ComplementOfUnion(NewMask(10, 10), NewMask(10, 10), 8, make([]bool, 1)); err == nil {
		t.Fatal("wrong band-flag count accepted")
	}
	// bandRows <= 0 degenerates to one whole-mask band.
	if err := m.ComplementOfUnion(NewMask(10, 10), NewMask(10, 10), 0, make([]bool, 1)); err != nil {
		t.Fatal(err)
	}
}

func TestApplyResidueMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, dim := range [][2]int{{64, 16}, {37, 23}, {130, 9}} {
		w, h := dim[0], dim[1]
		lb := randMask(rng, w, h, 0.2)
		src := randImage(rng, w, h)

		// Reference: the historical three-step accumulation.
		wantDst := randImage(rng, w, h)
		wantCov := randMask(rng, w, h, 0.1)
		dst := wantDst.Clone()
		cov := wantCov.Clone()
		lb.ForEachSet(func(p int) { wantDst.Pix[p] = src.Pix[p] })
		if err := wantCov.Union(lb); err != nil {
			t.Fatal(err)
		}

		nonEmpty := make([]bool, Bands(h, 8))
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if lb.At(x, y) {
					nonEmpty[y/8] = true
				}
			}
		}
		covFull := make([]bool, Bands(h, 8))
		if err := BandFullness(cov, 8, covFull); err != nil {
			t.Fatal(err)
		}
		n, err := ApplyResidue(lb, src, dst, cov, 8, nonEmpty, covFull)
		if err != nil {
			t.Fatal(err)
		}
		if n != lb.Count() {
			t.Fatalf("%dx%d: returned %d bits, lb has %d", w, h, n, lb.Count())
		}
		if !dst.Equal(wantDst) {
			t.Fatalf("%dx%d: residue image differs from the naive accumulation", w, h)
		}
		if !cov.Equal(wantCov) {
			t.Fatalf("%dx%d: coverage differs from the naive accumulation", w, h)
		}
		// The maintained covFull flags must agree with a fresh recompute.
		fresh := make([]bool, len(covFull))
		if err := BandFullness(cov, 8, fresh); err != nil {
			t.Fatal(err)
		}
		for i := range fresh {
			if covFull[i] != fresh[i] {
				t.Fatalf("%dx%d: band %d covFull = %v, recompute says %v", w, h, i, covFull[i], fresh[i])
			}
		}
	}
}

func TestApplyResidueSkipsSaturatedBands(t *testing.T) {
	// Once a band's coverage is full, ApplyResidue must still copy the
	// latest pixel values but the coverage plane cannot change.
	const w, h = 40, 16
	rng := rand.New(rand.NewSource(13))
	lb := NewFullMask(w, h)
	src := randImage(rng, w, h)
	dst := New(w, h)
	cov := NewFullMask(w, h)
	covFull := make([]bool, Bands(h, 8))
	if err := BandFullness(cov, 8, covFull); err != nil {
		t.Fatal(err)
	}
	for i, f := range covFull {
		if !f {
			t.Fatalf("band %d of a full mask not marked full", i)
		}
	}
	n, err := ApplyResidue(lb, src, dst, cov, 8, nil, covFull)
	if err != nil {
		t.Fatal(err)
	}
	if n != w*h {
		t.Fatalf("bits = %d, want %d", n, w*h)
	}
	if !dst.Equal(src) {
		t.Fatal("pixels not copied through a saturated band")
	}
	if cov.Count() != w*h {
		t.Fatal("saturated coverage changed")
	}
}

func TestApplyResidueEmptyBandsSkip(t *testing.T) {
	// With lbNonEmpty all false nothing may change, whatever lb holds:
	// the flags are authoritative (the stream records them during
	// ComplementOfUnion, so they are always in sync).
	const w, h = 33, 12
	rng := rand.New(rand.NewSource(14))
	lb := NewFullMask(w, h)
	src := randImage(rng, w, h)
	dst := New(w, h)
	want := dst.Clone()
	cov := NewMask(w, h)
	n, err := ApplyResidue(lb, src, dst, cov, 8, make([]bool, Bands(h, 8)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || !dst.Equal(want) || cov.Count() != 0 {
		t.Fatal("flagged-empty bands were not skipped")
	}
}

func TestBandFullness(t *testing.T) {
	const w, h = 70, 20
	m := NewFullMask(w, h)
	// Punch one hole in row 9 → band 1 (rows 8..15) not full.
	m.Set(69, 9, false)
	full := make([]bool, Bands(h, 8))
	if err := BandFullness(m, 8, full); err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true}
	for i := range want {
		if full[i] != want[i] {
			t.Fatalf("band %d full = %v, want %v", i, full[i], want[i])
		}
	}
	if err := BandFullness(m, 8, make([]bool, 2)); err == nil {
		t.Fatal("wrong flag count accepted")
	}
}

func TestMatchMaskIntoReusesAndOverwrites(t *testing.T) {
	a := New(21, 7)
	b := New(21, 7)
	for i := range b.Pix {
		if i%3 != 0 {
			b.Pix[i] = RGB{R: 9}
		}
	}
	dst := NewFullMask(21, 7) // stale content must vanish
	got := MatchMaskInto(dst, a, b, 0)
	if got != dst {
		t.Fatal("right-sized dst not reused")
	}
	for i := 0; i < 21*7; i++ {
		if got.GetI(i) != (i%3 == 0) {
			t.Fatalf("bit %d wrong", i)
		}
	}
	if got.Count() != countNaive(got) {
		t.Fatal("padding bits set")
	}
	fresh := MatchMaskInto(nil, New(5, 5), New(5, 5), 0)
	if fresh.Count() != 25 {
		t.Fatal("nil dst not allocated")
	}
	resized := MatchMaskInto(dst, New(8, 8), NewFilled(8, 8, White), 0)
	if resized == dst || resized.W != 8 || resized.Count() != 0 {
		t.Fatal("mis-sized dst must be replaced")
	}
}

func TestWordAccessorsKeepPadding(t *testing.T) {
	m := NewMask(70, 3) // two words per row, 6 valid bits in the last
	if m.WordsPerRow() != 2 {
		t.Fatalf("WordsPerRow = %d", m.WordsPerRow())
	}
	m.OrWord(1, 1, ^uint64(0)) // must clip to the 6 valid bits
	if m.Count() != 6 {
		t.Fatalf("count after edge OrWord = %d, want 6", m.Count())
	}
	if m.Word(1, 1) != (1<<6)-1 {
		t.Fatalf("Word = %#x", m.Word(1, 1))
	}
	if m.Word(0, 0) != 0 || m.Word(2, 1) != 0 {
		t.Fatal("unrelated words changed")
	}
	m.OrWord(0, 0, 0b1010)
	if !m.At(1, 0) || !m.At(3, 0) || m.At(0, 0) {
		t.Fatal("OrWord bit placement wrong")
	}
	m.AndNotWord(1, 1, ^uint64(0)&^0b111) // clears bits 67..69, padding untouched
	m.AndNotWord(0, 0, 0b0010)
	if m.Word(1, 1) != 0b111 || m.At(1, 0) || !m.At(3, 0) || m.Count() != 4 {
		t.Fatalf("AndNotWord: row 1 word 1 = %#x, count %d", m.Word(1, 1), m.Count())
	}
	m.SetWord(1, 1, ^uint64(0)&^0b10) // overwrites, clipped to the 6 valid bits
	m.SetWord(0, 0, 0b0100)
	if m.Word(1, 1) != 0b111101 || m.At(3, 0) || !m.At(2, 0) || m.Count() != 6 {
		t.Fatalf("SetWord: row 1 word 1 = %#x, count %d", m.Word(1, 1), m.Count())
	}
}

package binfmt

import (
	"encoding/binary"
	"errors"
	"testing"

	"github.com/bgbuster/bgbuster/internal/imagex"
)

var errBad = errors.New("test: bad data")

func TestReaderReadsEveryField(t *testing.T) {
	img := imagex.New(3, 2)
	for i := range img.Pix {
		img.Pix[i] = imagex.RGB{R: uint8(i), G: uint8(10 + i), B: uint8(20 + i)}
	}
	m := imagex.NewMask(70, 2)
	m.Set(0, 0, true)
	m.Set(69, 1, true)

	var b []byte
	b = append(b, 0xAB)
	b = binary.LittleEndian.AppendUint16(b, 0xBEEF)
	b = binary.LittleEndian.AppendUint32(b, 0xDEADBEEF)
	b = binary.LittleEndian.AppendUint64(b, 0x0123456789ABCDEF)
	b = binary.LittleEndian.AppendUint16(b, 5)
	b = append(b, "hello"...)
	b = imagex.AppendPix(b, img.Pix)
	b = m.AppendWords(b)
	b = append(b, 1, 2)

	r := NewReader(b, errBad)
	if v, err := r.U8(); err != nil || v != 0xAB {
		t.Fatalf("U8 = %#x, %v", v, err)
	}
	if v, err := r.U16(); err != nil || v != 0xBEEF {
		t.Fatalf("U16 = %#x, %v", v, err)
	}
	if v, err := r.U32(); err != nil || v != 0xDEADBEEF {
		t.Fatalf("U32 = %#x, %v", v, err)
	}
	if v, err := r.U64(); err != nil || v != 0x0123456789ABCDEF {
		t.Fatalf("U64 = %#x, %v", v, err)
	}
	if s, err := r.Str(5); err != nil || s != "hello" {
		t.Fatalf("Str = %q, %v", s, err)
	}
	if got, err := r.Image(3, 2); err != nil || !got.Equal(img) {
		t.Fatalf("Image = %v, %v", got, err)
	}
	if got, err := r.Mask(70, 2); err != nil || !got.Equal(m) {
		t.Fatalf("Mask = %v, %v", got, err)
	}
	if r.Remaining() != 2 {
		t.Fatalf("Remaining = %d, want 2", r.Remaining())
	}
	if got, err := r.Bytes(2); err != nil || got[0] != 1 || got[1] != 2 || r.Remaining() != 0 {
		t.Fatalf("Bytes(2) = %v, %v with %d left", got, err, r.Remaining())
	}
}

// TestReaderShortInputWrapsSentinel runs every accessor on an input one
// byte short of what it needs and checks the rejection wraps the
// sentinel the Reader was made with.
func TestReaderShortInputWrapsSentinel(t *testing.T) {
	strBody := append(binary.LittleEndian.AppendUint16(nil, 4), "abc"...)
	cases := []struct {
		name string
		data []byte
		read func(r *Reader) error
	}{
		{"Bytes", make([]byte, 4), func(r *Reader) error { _, err := r.Bytes(5); return err }},
		{"U8", nil, func(r *Reader) error { _, err := r.U8(); return err }},
		{"U16", make([]byte, 1), func(r *Reader) error { _, err := r.U16(); return err }},
		{"U32", make([]byte, 3), func(r *Reader) error { _, err := r.U32(); return err }},
		{"U64", make([]byte, 7), func(r *Reader) error { _, err := r.U64(); return err }},
		{"Str/prefix", make([]byte, 1), func(r *Reader) error { _, err := r.Str(16); return err }},
		{"Str/body", strBody, func(r *Reader) error { _, err := r.Str(16); return err }},
		{"Image", make([]byte, 3*4*3-1), func(r *Reader) error { _, err := r.Image(4, 3); return err }},
		{"Mask", make([]byte, imagex.MaskWordBytes(65, 3)-1), func(r *Reader) error { _, err := r.Mask(65, 3); return err }},
	}
	for _, c := range cases {
		r := NewReader(c.data, errBad)
		if err := c.read(r); !errors.Is(err, errBad) {
			t.Errorf("%s on %d bytes: err = %v, want one wrapping the sentinel", c.name, len(c.data), err)
		}
	}
}

func TestReaderNeed(t *testing.T) {
	r := NewReader(make([]byte, 8), errBad)
	for _, n := range []int64{0, 1, 8} {
		if err := r.Need(n); err != nil {
			t.Errorf("Need(%d) on 8 bytes: %v", n, err)
		}
	}
	for _, n := range []int64{-1, 9, 1 << 62} {
		if err := r.Need(n); !errors.Is(err, errBad) {
			t.Errorf("Need(%d) on 8 bytes: err = %v, want the sentinel", n, err)
		}
	}
	if r.Remaining() != 8 {
		t.Errorf("Need consumed input: %d remaining", r.Remaining())
	}
	if _, err := r.Bytes(-1); !errors.Is(err, errBad) {
		t.Errorf("Bytes(-1): err = %v, want the sentinel", err)
	}
}

func TestReaderStrBudget(t *testing.T) {
	data := append(binary.LittleEndian.AppendUint16(nil, 6), "abcdef"...)
	if _, err := NewReader(data, errBad).Str(5); !errors.Is(err, errBad) {
		t.Errorf("6-byte string under budget 5: err = %v, want the sentinel", err)
	}
	if s, err := NewReader(data, errBad).Str(6); err != nil || s != "abcdef" {
		t.Errorf("6-byte string under budget 6 = %q, %v", s, err)
	}
}

func TestReaderMaskRejectsPaddingBits(t *testing.T) {
	// 65 columns: the second word of each row holds one real bit and
	// 63 padding bits.
	data := imagex.NewMask(65, 2).AppendWords(nil)
	data[8+1] = 0x01 // bit 8 of row 0's second word: column 72, padding
	_, err := NewReader(data, errBad).Mask(65, 2)
	if !errors.Is(err, errBad) || !errors.Is(err, imagex.ErrBounds) {
		t.Fatalf("padding bit set: err = %v, want the sentinel and imagex.ErrBounds", err)
	}
}

// TestReaderMaskShortAllocatesNothing checks the mask section is sized
// before the mask is allocated: a short section for a large mask costs
// no more allocations than a failed Need (its error value).
func TestReaderMaskShortAllocatesNothing(t *testing.T) {
	data := make([]byte, 64)
	needAllocs := testing.AllocsPerRun(20, func() {
		_ = NewReader(data, errBad).Need(1 << 30)
	})
	maskAllocs := testing.AllocsPerRun(20, func() {
		if _, err := NewReader(data, errBad).Mask(8192, 8192); err == nil {
			t.Fatal("8192x8192 mask decoded from 64 bytes")
		}
	})
	if maskAllocs > needAllocs {
		t.Fatalf("short Mask section allocated %.0f times, a failed Need %.0f", maskAllocs, needAllocs)
	}
}

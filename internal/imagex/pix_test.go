package imagex

import (
	"bytes"
	"math/rand"
	"testing"
)

// refAppendPix is the one-pixel-at-a-time raster layout the byte view
// must reproduce byte for byte.
func refAppendPix(buf []byte, pix []RGB) []byte {
	for _, p := range pix {
		buf = append(buf, p.R, p.G, p.B)
	}
	return buf
}

func randPix(rng *rand.Rand, n int) []RGB {
	pix := make([]RGB, n)
	for i := range pix {
		pix[i] = RGB{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256))}
	}
	return pix
}

// checkPixRoundTrip encodes pix behind each prefix, compares with the
// reference, and decodes the raster back from a longer input.
func checkPixRoundTrip(t *testing.T, pix []RGB) {
	t.Helper()
	for _, prefix := range [][]byte{nil, []byte("BBFL\x01\x00\x02")} {
		want := refAppendPix(append([]byte(nil), prefix...), pix)
		got := AppendPix(append([]byte(nil), prefix...), pix)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendPix(%d-byte prefix, %d pixels) = %x, want %x", len(prefix), len(pix), got, want)
		}
		raster := got[len(prefix):]
		// Trailing bytes (an oracle flag, mask words) follow the raster
		// in every container; DecodePix must read only its own prefix.
		long := append(append([]byte(nil), raster...), 0xAA, 0x55, 0xFF)
		dst := make([]RGB, len(pix))
		DecodePix(dst, long)
		for i := range pix {
			if dst[i] != pix[i] {
				t.Fatalf("DecodePix of %d pixels: pixel %d = %v, want %v", len(pix), i, dst[i], pix[i])
			}
		}
	}
}

func TestPixCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// 0–17 pixels cover the empty raster, tails alone, one and two
	// whole 8-pixel groups and every tail length after them.
	for n := 0; n <= 17; n++ {
		for rep := 0; rep < 20; rep++ {
			checkPixRoundTrip(t, randPix(rng, n))
		}
	}
	checkPixRoundTrip(t, randPix(rng, 320*240))
}

// TestPixCodecEveryByteEveryLane drives each byte value through each of
// the 24 channel positions of an 8-pixel group, the rest of the group
// holding a distinct pattern, so a lane shift or mask error in either
// direction cannot hide.
func TestPixCodecEveryByteEveryLane(t *testing.T) {
	base := make([]RGB, 8)
	for i := range base {
		base[i] = RGB{R: uint8(3*i + 1), G: uint8(3*i + 2), B: uint8(3*i + 3)}
	}
	pix := make([]RGB, 8)
	for pos := 0; pos < 24; pos++ {
		for v := 0; v < 256; v++ {
			copy(pix, base)
			c := &pix[pos/3]
			switch pos % 3 {
			case 0:
				c.R = uint8(v)
			case 1:
				c.G = uint8(v)
			case 2:
				c.B = uint8(v)
			}
			want := refAppendPix(nil, pix)
			if got := AppendPix(nil, pix); !bytes.Equal(got, want) {
				t.Fatalf("channel %d = %d: AppendPix = %x, want %x", pos, v, got, want)
			}
			var dst [8]RGB
			DecodePix(dst[:], want)
			if !bytes.Equal(refAppendPix(nil, dst[:]), want) {
				t.Fatalf("channel %d = %d: DecodePix = %v, want %v", pos, v, dst, pix)
			}
		}
	}
}

func TestDecodePixPanicsOnShortInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DecodePix accepted 23 bytes for 8 pixels")
		}
	}()
	DecodePix(make([]RGB, 8), make([]byte, 23))
}

// TestPixBytesView checks that the view aliases the pixels both ways,
// that a subslice's view starts at its parent's byte 3k, and that nil
// and empty rasters give zero-length views.
func TestPixBytesView(t *testing.T) {
	pix := randPix(rand.New(rand.NewSource(3)), 11)
	view := PixBytes(pix)
	if len(view) != 33 || cap(view) != 33 {
		t.Fatalf("view of 11 pixels has len %d cap %d, want 33 and 33", len(view), cap(view))
	}
	if !bytes.Equal(view, refAppendPix(nil, pix)) {
		t.Fatalf("view = %x, want %x", view, refAppendPix(nil, pix))
	}
	view[3*4+1] = ^view[3*4+1]
	if pix[4].G != view[13] {
		t.Fatalf("write through the view: pixel 4 G = %d, want %d", pix[4].G, view[13])
	}
	pix[9] = RGB{R: 7, G: 8, B: 9}
	if got := view[27:30]; !bytes.Equal(got, []byte{7, 8, 9}) {
		t.Fatalf("write to pixel 9 shows in the view as %v, want [7 8 9]", got)
	}
	for k := 0; k <= len(pix); k++ {
		if sub := PixBytes(pix[k:]); !bytes.Equal(sub, view[3*k:]) || (len(sub) > 0 && &sub[0] != &view[3*k]) {
			t.Fatalf("view of pix[%d:] does not alias the parent view from byte %d", k, 3*k)
		}
	}
	if v := PixBytes(nil); len(v) != 0 {
		t.Fatalf("view of nil has length %d", len(v))
	}
	if v := PixBytes(pix[:0]); len(v) != 0 {
		t.Fatalf("view of an empty slice has length %d", len(v))
	}
}

// BenchmarkPixCodec times one 320×240 raster each way: encode into a
// reused buffer, decode into a reused pixel slice.
func BenchmarkPixCodec(b *testing.B) {
	pix := randPix(rand.New(rand.NewSource(1)), 320*240)
	raster := AppendPix(nil, pix)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(raster)))
		buf := make([]byte, 0, len(raster))
		for i := 0; i < b.N; i++ {
			buf = AppendPix(buf[:0], pix)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(raster)))
		dst := make([]RGB, len(pix))
		for i := 0; i < b.N; i++ {
			DecodePix(dst, raster)
		}
	})
}

package imagex

import "unsafe"

// The pixel raster codec. Every byte format that carries an image — .bbv
// frames, .bbck images, fleet wire frames and the options fingerprint —
// stores it as R, G, B bytes per pixel in row-major order, with no
// padding and no geometry (the container records W and H). That is
// exactly the memory layout of a []RGB, so PixBytes views a raster as
// its encoded bytes and AppendPix and DecodePix are one memmove each.
// This file holds the only unsafe code in the module.

// The byte view relies on RGB being three packed bytes in R, G, B order.
// An "invalid array index" compile error here means that layout changed.
func _() {
	var x [1]struct{}
	_ = x[unsafe.Sizeof(RGB{})-3]
	_ = x[unsafe.Offsetof(RGB{}.G)-1]
	_ = x[unsafe.Offsetof(RGB{}.B)-2]
}

// PixBytes returns the encoded raster of pix as a view of its memory:
// 3·len(pix) bytes, with len == cap, that alias pix. Writes through
// either show in the other. A nil or empty pix gives a zero-length view.
func PixBytes(pix []RGB) []byte {
	if len(pix) == 0 {
		return nil
	}
	return unsafe.Slice(&pix[0].R, 3*len(pix))
}

// AppendPix appends the raster of pix to buf and returns the extended
// slice. buf grows at most once, with amortised headroom, so bytes
// appended after the raster rarely reallocate.
func AppendPix(buf []byte, pix []RGB) []byte {
	return append(buf, PixBytes(pix)...)
}

// DecodePix fills dst from the raster in the first 3·len(dst) bytes of
// b, ignoring any bytes after them. It panics when b is shorter;
// decoders bound-check the section first.
func DecodePix(dst []RGB, b []byte) {
	copy(PixBytes(dst), b[:3*len(dst)])
}
